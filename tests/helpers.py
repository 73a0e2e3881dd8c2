"""Shared test helpers: canned runs and trace comparison."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro import SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.kernel.event import Event
from repro.kernel.lp import LogicalProcess
from repro.kernel.simobject import SimulationObject
from repro.stats.counters import LPStats
from repro.verify import Scenario

#: the differential smoke workload (``repro-bench parallel --app phold``)
PHOLD = Scenario(app="phold", end_time=300.0)


def flatten(partition: Sequence[Sequence[SimulationObject]]) -> list[SimulationObject]:
    return [obj for group in partition for obj in group]


def sequential_trace(build: Callable[[], list[list[SimulationObject]]],
                     **kwargs: Any) -> list:
    seq = SequentialSimulation(flatten(build()), record_trace=True, **kwargs)
    seq.run()
    return seq.sorted_trace()


def run_tw(build: Callable[[], list[list[SimulationObject]]],
           **config_kwargs: Any) -> TimeWarpSimulation:
    config = SimulationConfig(record_trace=True, **config_kwargs)
    sim = TimeWarpSimulation(build(), config)
    sim.run_stats = sim.run()  # type: ignore[attr-defined]
    return sim


def assert_equivalent(build: Callable[[], list[list[SimulationObject]]],
                      end_time: float = float("inf"),
                      **config_kwargs: Any) -> TimeWarpSimulation:
    """Run Time Warp under the given config and compare against sequential."""
    expected = sequential_trace(build, end_time=end_time)
    if end_time != float("inf"):
        config_kwargs.setdefault("end_time", end_time)
    sim = run_tw(build, **config_kwargs)
    assert sim.sorted_trace() == expected, (
        f"committed trace diverged: {len(sim.sorted_trace())} events committed "
        f"vs {len(expected)} sequential"
    )
    return sim


def make_event(sender: int = 0, receiver: int = 1, send_time: float = 0.0,
               recv_time: float = 10.0, payload: Any = "x",
               serial: int = 0, sign: int = 1) -> Event:
    return Event(sender=sender, receiver=receiver, send_time=send_time,
                 recv_time=recv_time, payload=payload, serial=serial, sign=sign)


class TransportHost:
    """A comm module's host without an LP around it: a clock to advance by
    hand, the flush timers asked of it, and the LP's own charge and send
    hooks, which count into :attr:`stats` exactly as an LP does."""

    lp_id = 0

    def __init__(self, agent=None) -> None:
        self.agent = agent
        self.clock = 0.0
        self.stats = LPStats()
        self.flushes: list[tuple[int, float, int]] = []

    def schedule_flush(self, dst_lp: int, at: float, generation: int) -> None:
        self.flushes.append((dst_lp, at, generation))

    charge = LogicalProcess.charge
    on_physical_sent = LogicalProcess.on_physical_sent


class Mailbox(list):
    """A queue stand-in that keeps what was put on it."""

    put = list.append


def inspection_shard(shard_id: int, partition, config: SimulationConfig,
                     n_shards: int = 2, mailboxes=None, to_coordinator=None):
    """A process-backend shard built in this process, with no wire and no
    doorbells: it can handle IPC records and be inspected, not run.  Give
    each shard its own ``partition`` (a forked worker has its own copy of
    the model and of the routing map)."""
    from repro.kernel.kernel import walk_directory
    from repro.parallel.worker import ShardPlan, _ShardRuntime

    objects, name_to_oid, group_of = walk_directory(partition)
    plan = ShardPlan(objects, name_to_oid, dict(enumerate(group_of)),
                     config, n_shards=n_shards)
    if to_coordinator is None:
        to_coordinator = Mailbox()
    return _ShardRuntime(shard_id, plan, None, to_coordinator, mailboxes or {})
