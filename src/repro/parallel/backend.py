"""Process-sharded parallel execution backend.

:class:`ParallelSimulation` is the concurrent sibling of
:class:`~repro.kernel.kernel.TimeWarpSimulation`: same partition-of-objects
input, same ``run() -> RunStats`` output, but the LPs execute in separate
OS processes (one LP per worker — the process boundary is the address
space the paper's LP abstraction stands for).  Inter-shard events travel
behind the DyMA aggregation buffers as packed binary frames through
shared-memory SPSC rings (the ``shm`` wire; see
:mod:`repro.parallel.wire` and :mod:`repro.parallel.shm`) or as pickled
batches over ``multiprocessing`` queues (the ``queue`` wire, the pure
fallback).  Which one is not configured: ``run()`` takes the rings
whenever the machine supports them and reports the choice as
``sim.wire``.  The parent process runs Mattern-colour GVT rounds
(:mod:`repro.parallel.gvt`), drives fossil collection, detects
termination, and merges the per-shard statistics into one
:class:`~repro.stats.counters.RunStats`.

A parallel run is **not** tick-for-tick deterministic — OS scheduling
decides the rollback pattern — so correctness is enforced differentially
(:mod:`repro.parallel.validate`): committed model counters and final
object states must match the sequential golden, and the invariant oracle
runs inside every worker.  See docs/parallel.md.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from ..gvt.mattern import GvtCommit, RoundResult
from ..kernel.config import SimulationConfig
from ..kernel.errors import ConfigurationError
from ..kernel.kernel import Partition, walk_directory
from ..oracle.invariants import InvariantViolation
from ..partition.graph import CommGraph, profile_model
from ..partition.strategies import (
    greedy_growth,
    kernighan_lin,
    partition_quality,
    round_robin,
)
from ..stats.counters import RunStats
from .gvt import GvtCoordinator
from .shm import RING_CAPACITY, ShmRing, WakeBoard, shm_wire_supported
from .ipc import (
    MigrateDone,
    PauseEpoch,
    Reconfigure,
    Resume,
    Retire,
    ShardDone,
    Stop,
)
from .worker import ShardPlan, worker_main

#: wait between all-idle rounds while termination drains, seconds
QUIET_SLEEP_S = 0.001

#: GVT commits between consultations of the placement controller.  Not
#: the modelled side's 8: a commit here costs a real ``gvt_period`` of wall
#: time and a short run sees a dozen — at 8 it would be asked once or never.
BALANCE_PERIOD = 1

PartitionBuilder = Callable[[], Partition]

_STRATEGIES = {
    "round_robin": round_robin,
    "greedy_growth": greedy_growth,
    "kernighan_lin": kernighan_lin,
}


def resolve_strategy(spec) -> Callable[[CommGraph, int], dict[str, int]]:
    """Name or callable -> assignment strategy.

    ``"kernighan_lin"`` (the default everywhere) needs no graph library
    and has no fallback: every install places the same model the same
    way, whatever its ``PYTHONHASHSEED``.
    """
    if callable(spec):
        return spec
    try:
        return _STRATEGIES[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown partition strategy {spec!r}; "
            f"available: {sorted(_STRATEGIES)}"
        ) from None


class ParallelSimulation:
    """One Time Warp run sharded across ``config.workers`` processes."""

    def __init__(
        self,
        partition: Partition,
        config: SimulationConfig | None = None,
        *,
        shard_map: dict[str, int] | None = None,
        trace_dir: str | None = None,
        timeout_s: float = 120.0,
    ) -> None:
        self.config = config or SimulationConfig(backend="parallel")
        self.config.validate("parallel")
        self.workers = self.config.workers
        self.trace_dir = trace_dir
        if trace_dir is not None:
            # workers open shard-<n>.jsonl inside it before executing
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
        self.timeout_s = timeout_s

        # --- directory (kernel.walk_directory: oids in flat order) ------
        # Placement never perturbs oid order.  ``shard_map`` (object name
        # -> shard) overrides it; without one, groups map to shards 1:1
        # when counts match, else fold round-robin so each modelled-LP
        # group stays co-resident (a 1:1 fold is the same ``% workers``).
        self._objects, self._name_to_oid, group_of = walk_directory(partition)
        self._oid_to_shard: dict[int, int] = {}
        for oid, obj in enumerate(self._objects):
            if shard_map is None:
                shard = group_of[oid] % self.workers
            else:
                try:
                    shard = shard_map[obj.name]
                except KeyError:
                    raise ConfigurationError(
                        f"shard_map is missing object {obj.name!r}"
                    ) from None
                if not 0 <= shard < self.workers:
                    raise ConfigurationError(
                        f"shard_map sends {obj.name!r} to shard {shard}, "
                        f"but workers={self.workers}"
                    )
            self._oid_to_shard[oid] = shard
        empty = sorted(set(range(self.workers)) - set(self._oid_to_shard.values()))
        if empty:
            raise ConfigurationError(
                f"shard(s) {empty} would host no objects; "
                f"use fewer workers or more partition groups"
            )

        #: set by :meth:`from_builder` when a strategy chose the sharding
        self.assignment: dict[str, int] | None = None
        self.partition_quality: dict | None = None

        # --- elastic pool state (docs/parallel.md) -----------------------
        script = self.config.script or {}
        #: GVT-commit index -> the run script's steps due at that commit
        self._steps: dict[int, list[dict]] = {}
        for step in script.get("steps", []):
            self._steps.setdefault(step["at"], []).append(step)
        self._rng = random.Random(script.get("seed", 0))
        self._join_budget = sum(
            1
            for steps in self._steps.values()
            for step in steps
            if step["kind"] == "join"
        )
        self._epoch = 0
        self._commits = 0
        self._next_shard = self.workers
        self._retired_payloads: dict[int, dict] = {}
        #: (GVT-commit index, active worker count) — grows on join/leave
        self.worker_timeline: list[tuple[int, int]] = [(0, self.workers)]
        self.migrations_in = 0
        self.migrations_out = 0
        #: ``placement="dynamic"``: the controller the modelled MetaController
        #: drives, fed from ``ShardReport.loads``; ``history`` has its decisions
        self.placement = None
        if self.config.placement == "dynamic":
            from ..control.meta import PlacementController

            self.placement = PlacementController(period=BALANCE_PERIOD)

        #: the wire actually used, observed at run(): "shm" when there is
        #: more than one pool slot, the CPU has the x86-TSO store ordering
        #: the ring protocol relies on (shm_wire_supported) and every
        #: ring allocates; "queue", the always-works fallback, otherwise
        self.wire = "queue"
        self._rings: dict[tuple[int, int], ShmRing] | None = None
        self._wakes: WakeBoard | None = None
        #: merged per-shard wire counters after run(): frames, fallbacks,
        #: and ``settles``, the times inbound data was handled inside a
        #: slice because the next event would otherwise have run
        #: optimistically (docs/parallel.md, "Events no peer can undo")
        self.wire_stats: dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "ring_bytes_sent": 0,
            "wire_fallbacks": 0,
            "settles": 0,
        }

        # --- run results -------------------------------------------------
        self.stats: RunStats | None = None
        self.final_states: dict[str, object] = {}
        self.violations: list[tuple[int, InvariantViolation]] = []
        self.oracle_checks = 0
        #: the workers' oracle checks per kind, summed
        self.oracle_checks_by_kind: Counter[str] = Counter()
        #: shard -> share of the events it executed that it committed at
        #: once, below its safe bound (docs/parallel.md)
        self.safe_share: dict[int, float] = {}
        self.wall_s = 0.0
        self.gvt_rounds_run = 0
        self.gvt_passes_run = 0
        self._ran = False

    # ------------------------------------------------------------------ #
    @classmethod
    def from_builder(
        cls,
        builder: PartitionBuilder,
        config: SimulationConfig | None = None,
        *,
        strategy="kernighan_lin",
        **kwargs,
    ) -> "ParallelSimulation":
        """Shard a model with a partition strategy (kernighan_lin default).

        The strategy places from a sequential pilot of the model, its
        first events up to ``config.end_time`` (see
        :func:`repro.partition.profile_model`).  The pilot consumes one
        instance of the model, so the model arrives as a zero-argument
        ``builder`` returning a fresh partition; its group structure only
        fixes the canonical oid order — *placement* follows the measured
        communication graph via the ``shard_map`` mechanism, so
        tie-breaking stays sequential-equal.
        """
        config = config or SimulationConfig(backend="parallel")
        probe = [obj for group in builder() for obj in group]
        graph = profile_model(probe, end_time=config.end_time)
        assignment = resolve_strategy(strategy)(graph, config.workers)
        sim = cls(builder(), config, shard_map=assignment, **kwargs)
        sim.assignment = assignment
        sim.partition_quality = partition_quality(graph, assignment)
        return sim

    # ------------------------------------------------------------------ #
    def run(self) -> RunStats:
        """Execute to global quiescence and return merged statistics."""
        if self._ran:
            raise ConfigurationError("a ParallelSimulation can only run once")
        self._ran = True
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "backend='parallel' needs the 'fork' start method "
                "(policy factories and model objects are not picklable "
                "under spawn)"
            )
        self._ctx = ctx = multiprocessing.get_context("fork")
        started = time.perf_counter()

        # Pre-provision one inbox per potential worker — the initial
        # shards plus one per scripted join step.  The queues must exist
        # before the first fork so every worker can already address
        # workers that join later (mp queues cannot be shipped mid-run).
        pool_size = self.workers + self._join_budget
        self._inboxes = [ctx.Queue() for _ in range(pool_size)]
        # A worker writes its reports itself: an ``mp.Queue`` feeder
        # thread loses the GIL to a worker busy polling and delivers a
        # report up to a whole run late (docs/parallel.md).
        self._report_queue = ctx.SimpleQueue()
        # Likewise one doorbell per slot and one for this coordinator.
        self._wakes = WakeBoard(pool_size)
        # One SPSC ring per directed pair, allocated for the whole
        # pre-provisioned pool (joiners inherit theirs across fork, like
        # the inboxes).  The ring protocol needs x86-TSO store ordering,
        # and a single slot has nothing inter-shard to carry.  Allocation
        # failure is not an error: the queue wire is the always-works
        # fallback.
        if pool_size > 1 and shm_wire_supported():
            self._rings = {}
            try:
                for src in range(pool_size):
                    for dst in range(pool_size):
                        if src != dst:
                            self._rings[(src, dst)] = ShmRing.create(
                                RING_CAPACITY, f"{src}->{dst}"
                            )
                self.wire = "shm"
            except (OSError, ValueError):
                self._destroy_rings()
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        try:
            for shard in range(self.workers):
                self._fork_worker(shard)
            coordinator = GvtCoordinator(
                self._inboxes, self._report_queue, timeout_s=self.timeout_s,
                active=range(self.workers), processes=self._processes,
            )
            last, committed = self._drive(coordinator, self.config.gvt_period / 1e6)
            coordinator.broadcast(Stop(
                final_gvt=last.gvt if committed is None else committed,
                total_sent=last.total_sent,
                total_received=last.total_received,
            ))
            done = coordinator.collect(ShardDone, coordinator.active, "shutdown")
            payloads = {shard: m.payload for shard, m in done.items()}
        except BaseException:
            # BaseException: Ctrl-C must not leave workers looping under
            # the joins and the ring unlink below
            for process in self._processes.values():
                if process.is_alive():
                    process.terminate()
            raise
        finally:
            for process in self._processes.values():
                process.join(timeout=10.0)
            self._destroy_rings()
            self._wakes.close()

        payloads.update(self._retired_payloads)
        self.wall_s = time.perf_counter() - started
        self.gvt_rounds_run = coordinator.rounds_completed
        self.gvt_passes_run = coordinator.passes_total
        self.stats = self._merge(payloads, committed or 0.0)
        return self.stats

    def _destroy_rings(self) -> None:
        """Unmap this process's rings (a shard's copies go with it)."""
        if self._rings is not None:
            for ring in self._rings.values():
                ring.destroy()
            self._rings = None

    def _fork_worker(self, shard: int, join_epoch: int | None = None) -> None:
        """Fork ``shard`` against the parent's current placement map (a
        joiner forks paused inside ``join_epoch``)."""
        plan = ShardPlan(
            objects=self._objects,
            name_to_oid=self._name_to_oid,
            oid_to_shard=dict(self._oid_to_shard),
            config=self.config,
            n_shards=len(self._inboxes),
            trace_dir=self.trace_dir,
            join_epoch=join_epoch,
        )
        process = self._processes[shard] = self._ctx.Process(
            target=worker_main,
            args=(shard, plan, self._inboxes[shard], self._report_queue,
                  dict(enumerate(self._inboxes)), self._rings, self._wakes),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        # busy before it exists: a shard that runs dry while this one is
        # still starting up must not take the fleet for idle
        self._wakes.mark_busy(shard)
        process.start()

    # ------------------------------------------------------------------ #
    def _drive(self, coordinator, gvt_period_s):
        """GVT rounds until a round proves quiescence.

        Returns ``(final RoundResult, committed GVT or None)``.
        Elastic epochs (run-script steps, dynamic-placement
        rebalancing) run strictly between rounds, right after a commit.
        """
        committed: float | None = None
        while True:
            result: RoundResult = coordinator.run_round()
            gvt = result.gvt
            if gvt != float("inf") and (committed is None or gvt > committed):
                committed = gvt
                self._commits += 1
                coordinator.broadcast(GvtCommit(result.round, gvt))
                if not result.all_quiet:
                    self._maybe_reconfigure(coordinator, result)
            if result.all_quiet:
                if committed is not None and self._steps:
                    # The fleet quiesced before some scripted steps'
                    # commit indices were reached (fast wires finish
                    # short runs in a handful of rounds).  A quiet
                    # fleet drains trivially, so fire the outstanding
                    # steps now, in plan order, then run one more
                    # round so the final totals and active set match
                    # the post-churn fleet.
                    for index in sorted(self._steps):
                        for step in self._steps.pop(index):
                            self._run_step(coordinator, step)
                    continue
                return result, committed
            # Busy fleet: next round after the configured period, or as
            # soon as the last busy shard runs dry and rings.  Idle fleet
            # (draining in-flight work or final reds): spin fast so
            # termination is detected promptly.
            if result.any_active:
                self._wakes.wait(self._wakes.coordinator, timeout=gvt_period_s)
            else:
                time.sleep(QUIET_SLEEP_S)

    # ------------------------------------------------------------------ #
    # elastic epochs: pause -> drain -> move -> resume (docs/parallel.md)
    # ------------------------------------------------------------------ #
    def _maybe_reconfigure(self, coordinator, result: RoundResult) -> None:
        for step in self._steps.pop(self._commits, []):
            self._run_step(coordinator, step)
        if self.placement is not None and self._commits % self.placement.period == 0:
            self._balance(coordinator, result)

    def _run_step(self, coordinator, step: dict) -> None:
        """Materialize one run-script step with the script's RNG.

        Impossible steps (a leave with one worker left, a join past the
        pre-provisioned pool, a migrate with a single active worker) are
        skipped, never errors: fuzzed scripts must stay runnable.
        """
        rng = self._rng
        owners = self._oid_to_shard
        active = sorted(coordinator.active)
        kind = step["kind"]
        if kind == "migrate":
            if len(active) < 2:
                return
            moves = []
            taken: set[int] = set()
            for _ in range(step.get("count", 1)):
                candidates = [oid for oid in sorted(owners) if oid not in taken]
                if not candidates:
                    break
                oid = rng.choice(candidates)
                taken.add(oid)
                src = owners[oid]
                moves.append(
                    (oid, src, rng.choice([s for s in active if s != src]))
                )
            self._elastic_epoch(coordinator, tuple(moves), (), ())
        elif kind == "join":
            if self._next_shard >= len(self._inboxes):
                return
            joiner = self._next_shard
            self._next_shard += 1
            count = step.get(
                "count", max(1, len(owners) // (len(active) + 1))
            )
            pool = sorted(owners)
            rng.shuffle(pool)
            moves = tuple(
                (oid, owners[oid], joiner) for oid in pool[:count]
            )
            self._elastic_epoch(coordinator, moves, (joiner,), ())
        else:  # leave
            for _ in range(step.get("count", 1)):
                active = sorted(coordinator.active)
                if len(active) < 2:
                    break
                leaver = rng.choice(active)
                remaining = [s for s in active if s != leaver]
                moves = tuple(
                    (oid, leaver, rng.choice(remaining))
                    for oid in sorted(owners)
                    if owners[oid] == leaver
                )
                self._elastic_epoch(coordinator, moves, (), (leaver,))

    def _balance(self, coordinator, result: RoundResult) -> None:
        """Dynamic placement: migrate load off the hottest worker (all
        workers are the same host, so every cost factor is 1.0)."""
        loads = {
            report.shard: dict(report.loads)
            for report in result.reports
            if report.loads is not None and report.shard in coordinator.active
        }
        moves = self.placement.control(loads)
        if moves:
            self._elastic_epoch(coordinator, moves, (), ())

    def _elastic_epoch(self, coordinator, moves, joiners, leavers) -> None:
        """One reconfiguration epoch, strictly between GVT rounds.

        Protocol (see repro/parallel/ipc.py): pause every active worker,
        drain the wire through GVT rounds on the paused fleet, fork
        joiners against a pre-move routing snapshot, broadcast the
        placement delta, wait for every checkpoint handoff, retire drained
        leavers, resume.

        The drain's rounds commit nothing and end at one in which no
        shard sent: every white was received, and a paused shard's cut
        flushes it, so after the cut it sends only in answer to a later
        receipt, which no one can cause first.  The wire is empty and
        stays so (docs/parallel.md, "Elastic execution", step 2).
        """
        self._epoch += 1
        epoch = self._epoch
        deadline = time.monotonic() + self.timeout_s
        coordinator.broadcast(PauseEpoch(epoch))
        while True:
            result = coordinator.run_round("elastic epoch", deadline=deadline)
            if not any(report.red_sent for report in result.reports):
                break
            time.sleep(QUIET_SLEEP_S)  # deliveries still rolling back
        for shard in joiners:
            # The joiner's plan snapshots the routing map BEFORE this
            # epoch's moves; the Reconfigure broadcast below (which the
            # joiner also receives) applies the delta, so every address
            # space converges on the same map.
            self._fork_worker(shard, join_epoch=epoch)
            coordinator.add_worker(shard)
        coordinator.broadcast(Reconfigure(epoch, tuple(moves)))
        coordinator.collect(
            MigrateDone, coordinator.active, "elastic epoch",
            match=lambda m: m.epoch == epoch, deadline=deadline,
        )
        for shard in leavers:
            self._inboxes[shard].put(Retire(epoch))
        retirements = coordinator.collect(
            ShardDone, leavers, "elastic epoch", deadline=deadline
        )
        for shard, retired in retirements.items():
            transport = retired.payload["transport"]
            totals = transport["messages_sent"], transport["messages_received"]
            coordinator.retire_worker(shard, *totals)
            self._wakes.mark_dry(shard, *totals)  # dry for good
            self._retired_payloads[shard] = retired.payload
            self._processes[shard].join(timeout=10.0)
        coordinator.broadcast(Resume(epoch))
        for oid, _src, dst in moves:
            self._oid_to_shard[oid] = dst
        if joiners or leavers:
            self.worker_timeline.append(
                (self._commits, len(coordinator.active))
            )

    # ------------------------------------------------------------------ #
    def _merge(self, payloads: dict[int, dict], final_gvt: float) -> RunStats:
        stats = RunStats()
        stats.final_gvt = final_gvt
        received = 0
        for shard in sorted(payloads):
            payload = payloads[shard]
            stats.fold_lp(
                shard, payload["clock"], payload["lp_stats"],
                payload["object_stats"],
            )
            transport = payload["transport"]
            received += transport["messages_received"]
            for key in self.wire_stats:
                self.wire_stats[key] += transport.get(key, 0)
            self.final_states.update(payload["final_states"])
            self.oracle_checks += payload["oracle_checks"]
            self.oracle_checks_by_kind.update(payload["oracle_kinds"])
            ostats = payload["object_stats"].values()
            executed = sum(o.events_executed for o in ostats)
            self.safe_share[shard] = (
                sum(o.events_committed_at_once for o in ostats) / executed
                if executed else 0.0
            )
            migrations = payload.get("migrations", {})
            self.migrations_in += migrations.get("in", 0)
            self.migrations_out += migrations.get("out", 0)
            for violation in payload["violations"]:
                self.violations.append((shard, violation))
        if self.migrations_in != self.migrations_out:
            self.violations.append(
                (-1, InvariantViolation(
                    "migration_conservation",
                    stats.execution_time,
                    f"checkpoints shipped vs restored diverge: "
                    f"{self.migrations_out} out vs {self.migrations_in} in",
                ))
            )
        if stats.physical_messages != received:
            self.violations.append(
                (-1, InvariantViolation(
                    "wire_conservation",
                    stats.execution_time,
                    f"global totals diverge after shutdown: "
                    f"{stats.physical_messages} sent vs {received} received",
                ))
            )
        return stats

    # ------------------------------------------------------------------ #
    def shard_of(self, name: str) -> int:
        """Which worker hosts the named object (introspection/tests)."""
        return self._oid_to_shard[self._name_to_oid[name]]


__all__ = [
    "ParallelSimulation",
    "PartitionBuilder",
    "resolve_strategy",
]
