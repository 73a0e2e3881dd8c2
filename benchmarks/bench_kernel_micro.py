"""Micro-benchmarks of the kernel's hot paths (pytest-benchmark proper).

These track the *real* (wall-clock) cost of the reproduction's inner
loops — event execution, state checkpointing, rollback, queue operations
— so performance regressions in the kernel itself are visible
independently of the modelled results.
"""

from dataclasses import dataclass, field

import pytest

from repro import SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.apps.smmp import SMMPParams, build_smmp
from repro.comm.message import MessageKind, PhysicalMessage
from repro.kernel.event import Event
from repro.kernel.queues import InputQueue
from repro.kernel.state import RecordState
from repro.parallel.wire import decode_batch, encode_batch
from tests.helpers import flatten, make_event


def test_micro_sequential_event_loop(benchmark):
    """Sequential kernel throughput (events/second of real time)."""

    def run():
        seq = SequentialSimulation(
            flatten(build_smmp(SMMPParams(requests_per_processor=20)))
        )
        seq.run()
        return seq.events_executed

    events = benchmark(run)
    assert events > 1000


def test_micro_timewarp_no_rollback(benchmark):
    """Time Warp overhead on a rollback-free workload (pingpong)."""

    def run():
        sim = TimeWarpSimulation(build_pingpong(400), SimulationConfig())
        return sim.run().committed_events

    committed = benchmark(run)
    assert committed == 400


def test_micro_timewarp_with_rollbacks(benchmark):
    """Time Warp throughput under real rollback pressure (PHOLD, skewed)."""

    params = PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=2)

    def run():
        config = SimulationConfig(
            end_time=2_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0}
        )
        stats = TimeWarpSimulation(build_phold(params), config).run()
        assert stats.rollbacks > 0
        return stats.executed_events

    executed = benchmark(run)
    assert executed > 1000


def test_micro_input_queue_ops(benchmark):
    """Insert + pop throughput of the event heap."""

    events = [make_event(recv_time=float((i * 7919) % 1000), serial=i)
              for i in range(2000)]

    def run():
        q = InputQueue()
        for e in events:
            q.insert_positive(e)
        n = 0
        while q.peek_next() is not None:
            q.pop_next()
            n += 1
        return n

    assert benchmark(run) == 2000


def test_micro_queue_annihilate(benchmark):
    """Anti-message annihilation: tombstoning unprocessed positives and
    locating processed ones (the two insert_anti paths)."""

    n = 1000
    events = [make_event(recv_time=float((i * 7919) % 997) + 1.0, serial=i)
              for i in range(n)]
    antis = [e.anti_message() for e in events]

    def run():
        q = InputQueue()
        for e in events:
            q.insert_positive(e)
        for _ in range(n // 2):  # process half, leave half in the future heap
            q.pop_next()
        return sum(q.insert_anti(anti) is not None for anti in antis)

    assert benchmark(run) == n // 2


def test_micro_rollback_storm(benchmark):
    """Rollback machinery cost: repeated deep rollbacks on one object."""

    from repro.cluster.costmodel import CostModel
    from repro.kernel.cancellation import Mode, StaticCancellation
    from repro.kernel.checkpointing import StaticCheckpoint
    from repro.kernel.lp import LogicalProcess
    from repro.kernel.simobject import SimulationObject

    @dataclass
    class S(RecordState):
        log: list = field(default_factory=list)

    class Obj(SimulationObject):
        def initial_state(self):
            return S()

        def execute_process(self, payload):
            self.state.log.append(payload)

    def run():
        lp = LogicalProcess(0, CostModel(), resolve_name=lambda n: 0,
                            lp_of=lambda o: 0)
        lp.attach(Obj("o"), 0,
                  cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
                  ckpt_policy=StaticCheckpoint(4))
        lp.initialize()
        serial = 0
        for wave in range(10):
            base = 1000.0 - wave * 100.0  # each wave is a deep straggler
            for i in range(30):
                lp.deliver_event(Event(
                    sender=99, receiver=0, send_time=base + i,
                    recv_time=base + i + 1, payload=i, serial=serial,
                ))
                serial += 1
            while lp.execute_one():
                pass
        return lp.members[0].stats.rollbacks

    rollbacks = benchmark(run)
    assert rollbacks == 9


@dataclass
class TableState(RecordState):
    """Representative model state: counters plus container fields."""

    counter: int = 0
    clock: float = 0.0
    table: list = field(default_factory=list)
    index: dict = field(default_factory=dict)


def test_micro_snapshot_copy(benchmark):
    """Checkpoint save + rollback restore of a 200-element-table state
    through its own ``copy()``, the one way the kernel copies a state."""

    state = TableState(counter=7, clock=123.5, table=list(range(200)),
                       index={i: float(i) for i in range(50)})

    def run():
        for _ in range(50):
            restored = state.copy().copy()
        return restored

    assert benchmark(run) == state


def test_micro_snapshot_array(benchmark):
    """``RecordState.copy()`` of an array-backed state: one
    ``ndarray.copy()`` per array field."""

    np = pytest.importorskip("numpy")

    @dataclass
    class S(RecordState):
        counter: int = 0
        table: object = None
        shards: list = field(default_factory=list)

    state = S(counter=7, table=np.arange(4096, dtype=np.float64),
              shards=[np.arange(512, dtype=np.int64) for _ in range(4)])

    def run():
        total = 0
        for _ in range(50):
            clone = state.copy()
            total += clone.counter
        return total

    assert benchmark(run) == 350


@dataclass
class GenericPHOLDState(RecordState):
    """``PHOLDState``'s fields without its hand-written copy/size."""

    jobs_processed: int = 0
    sequence: int = 0
    scratch: list = None  # type: ignore[assignment]


@dataclass
class GenericCacheState(RecordState):
    """SMMP ``CacheState``'s fields without its hand-written copy/size."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    tags: list = field(default_factory=list)


@dataclass
class GenericDiskState(RecordState):
    """RAID ``DiskState``'s fields without its hand-written copy/size."""

    served: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    zone_histogram: list = field(default_factory=list)


def _checkpointed_states():
    from repro.apps.phold import PHOLDState
    from repro.apps.raid import DiskState
    from repro.apps.smmp import CacheState, SourceState

    return {
        "smmp-source": SourceState(issued=7, completed=5),
        "phold": PHOLDState(jobs_processed=7, sequence=3),
        "phold-generic": GenericPHOLDState(jobs_processed=7, sequence=3),
        "phold-scratch64": PHOLDState(jobs_processed=7, sequence=3, scratch=[0] * 64),
        "phold-scratch64-generic": GenericPHOLDState(7, 3, [0] * 64),
        "smmp-cache": CacheState(tags=[0] * 512),
        "smmp-cache-generic": GenericCacheState(tags=[0] * 512),
        "raid-disk": DiskState(zone_histogram=[0] * 256),
        "raid-disk-generic": GenericDiskState(zone_histogram=[0] * 256),
    }


@pytest.mark.parametrize("shape", sorted(_checkpointed_states()))
def test_micro_record_state_copy_size(benchmark, shape):
    """One checkpoint's state work, ``size_bytes()`` then ``copy()``, ×100.

    ``smmp-source`` is SMMP's two-int source state on the compiled
    ``RecordState`` path.  Each ``*-generic`` shape is an app state's
    fields without its hand-written ``copy``/``size_bytes``: the pair says
    whether that override still pays (EXPERIMENTS.md)."""

    state = _checkpointed_states()[shape]

    def run():
        total = 0
        for _ in range(100):
            total += state.size_bytes()
            state.copy()
        return total

    assert benchmark(run) == 100 * state.size_bytes()


def test_micro_fossil_collect(benchmark):
    """``LogicalProcess.fossil_collect`` below all history: 8 objects with
    200 retained snapshots each, so every call samples the memory high-water
    marks over 1 608 snapshots and collects nothing."""

    from repro.apps.smmp import SourceState
    from repro.cluster.costmodel import CostModel
    from repro.kernel.cancellation import Mode, StaticCancellation
    from repro.kernel.checkpointing import StaticCheckpoint
    from repro.kernel.lp import LogicalProcess
    from repro.kernel.simobject import SimulationObject

    class Obj(SimulationObject):
        def initial_state(self):
            return SourceState()

        def execute_process(self, payload):
            self.state.issued += payload

    lp = LogicalProcess(0, CostModel(), resolve_name=lambda n: 0, lp_of=lambda o: 0)
    for oid in range(8):
        lp.attach(Obj(f"o{oid}"), oid,
                  cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
                  ckpt_policy=StaticCheckpoint(1))
    lp.initialize()
    serial = 0
    for oid in range(8):
        for i in range(200):
            lp.deliver_event(Event(sender=99, receiver=oid, send_time=float(i),
                                   recv_time=i + 1.0, payload=1, serial=serial))
            serial += 1
    while lp.execute_one():
        pass

    benchmark(lp.fossil_collect, 0.5)
    assert sum(len(ctx.sq.entries) for ctx in lp.members.values()) == 8 * 201


def _phold_envelope(stamp: int, n_events: int):
    """One PHOLD physical message: ``(job_id, hop)`` payloads."""
    events = tuple(
        Event(sender=i, receiver=8 + i, send_time=10.0 * i,
              recv_time=10.0 * i + 7.25, payload=(i, 3), serial=100 + i)
        for i in range(n_events)
    )
    return stamp, PhysicalMessage(src_lp=0, dst_lp=1,
                                  kind=MessageKind.DATA, events=events)


@pytest.mark.parametrize("n_envelopes", [1, 4])
def test_micro_wire_codec(benchmark, n_envelopes):
    """Encode + decode of one shm-wire frame: six PHOLD events in one
    envelope (one slice's aggregate) and split over four envelopes (four
    destination LPs, or a policy that flushes inside a slice)."""

    envelopes = tuple(
        _phold_envelope(stamp, 6 // n_envelopes + (stamp < 6 % n_envelopes))
        for stamp in range(n_envelopes)
    )

    def run():
        return decode_batch(encode_batch(1, envelopes))

    batch = benchmark(run)
    assert [len(m.events) for _s, m in batch.envelopes] == [
        len(m.events) for _s, m in envelopes
    ]
