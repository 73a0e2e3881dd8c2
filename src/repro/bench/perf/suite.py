"""The benchmark suite: registered micro- and macro-benchmarks.

Micro-benchmarks isolate one kernel hot path (event-queue ops, checkpoint
save/restore, rollback/coast-forward, GVT estimation) with synthetic
drivers; macro-benchmarks run the three real workloads (PHOLD, SMMP,
RAID) end to end and report committed events per wall-clock second — the
headline number the ROADMAP's "fast as the hardware allows" goal is
judged by.

Every workload is seeded and deterministic: its ``(ops, counters)``
return is identical across repetitions, runs and machines (only the
timings vary), which is what makes ``BENCH_3.json`` files comparable and
lets a drift in counters be flagged separately from a wall-clock
regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ...kernel.state import RecordState
from .timing import Measurement, Workload, measure

#: quick-mode scale knobs live with each benchmark below; quick runs keep
#: the whole suite under ~1 minute on a laptop for the CI smoke gate.


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark."""

    name: str
    kind: str  # "micro" | "macro"
    unit: str  # what ``ops`` counts ("events", "ops", ...)
    #: builds the workload; ``quick`` selects the reduced CI-sized load
    make: Callable[[bool], Workload] = field(repr=False)
    #: execution backend the workload drives ("modelled" for the
    #: deterministic in-process cluster, "parallel" for OS processes)
    backend: str = "modelled"
    #: worker process count (always 1 for the modelled backend)
    workers: int = 1
    #: inter-shard data wire for parallel benchmarks ("shm"/"queue");
    #: ``None`` for modelled benchmarks, which have no wire
    wire: str | None = None

    def run(self, *, quick: bool = False, reps: int = 3, warmup: int = 1) -> Measurement:
        return measure(self.make(quick), reps=reps, warmup=warmup)


REGISTRY: dict[str, Benchmark] = {}


def benchmark(name: str, kind: str, unit: str, *, backend: str = "modelled",
              workers: int = 1, wire: str | None = None):
    """Register ``fn(quick) -> Workload`` under ``name``."""

    def register(fn: Callable[[bool], Workload]):
        if name in REGISTRY:
            raise ValueError(f"duplicate benchmark name {name!r}")
        REGISTRY[name] = Benchmark(
            name=name, kind=kind, unit=unit, make=fn,
            backend=backend, workers=workers, wire=wire,
        )
        return fn

    return register


# --------------------------------------------------------------------- #
# micro: event-queue operations
# --------------------------------------------------------------------- #
def _make_events(n: int) -> list:
    from ...kernel.event import Event

    return [
        Event(
            sender=99,
            receiver=0,
            send_time=float((i * 7919) % 997),
            recv_time=float((i * 7919) % 997) + 1.0,
            payload=i,
            serial=i,
        )
        for i in range(n)
    ]


@benchmark("queue.insert_pop", "micro", "ops")
def _queue_insert_pop(quick: bool) -> Workload:
    """Heap insert + ordered pop throughput of the input queue."""
    from ...kernel.queues import InputQueue

    n = 2_000 if quick else 10_000
    events = _make_events(n)

    def run() -> tuple[int, dict[str, Any]]:
        q = InputQueue()
        for e in events:
            q.insert_positive(e)
        popped = 0
        while q.has_future():
            q.pop_next()
            popped += 1
        return 2 * n, {"events": n, "popped": popped}

    return run


@benchmark("queue.annihilate", "micro", "ops")
def _queue_annihilate(quick: bool) -> Workload:
    """Anti-message annihilation: tombstoning unprocessed positives and
    locating processed ones (the two insert_anti paths)."""
    from ...kernel.queues import InputQueue

    n = 1_000 if quick else 4_000
    events = _make_events(n)
    antis = [e.anti_message() for e in events]

    def run() -> tuple[int, dict[str, Any]]:
        q = InputQueue()
        for e in events:
            q.insert_positive(e)
        # process half, leave half in the future heap
        for _ in range(n // 2):
            q.pop_next()
        hits_processed = 0
        for anti in antis:
            if q.insert_anti(anti) is not None:
                hits_processed += 1
        return n, {"events": n, "processed_hits": hits_processed}

    return run


# --------------------------------------------------------------------- #
# micro: checkpoint save / restore (snapshot strategies)
# --------------------------------------------------------------------- #
@dataclass
class _BenchState(RecordState):
    """Representative model state: counters plus container fields.

    Module-level on purpose: the pickle snapshot strategy needs an
    importable class.
    """

    counter: int = 0
    clock: float = 0.0
    table: list = field(default_factory=list)
    index: dict = field(default_factory=dict)


def _snapshot_workload(strategy_name: str, quick: bool) -> Workload:
    from ...kernel.state import resolve_snapshot_strategy

    state = _BenchState(
        counter=7,
        clock=123.5,
        table=list(range(200)),
        index={i: float(i) for i in range(50)},
    )
    strategy = resolve_snapshot_strategy(strategy_name)
    iterations = 200 if quick else 1_000

    def run() -> tuple[int, dict[str, Any]]:
        restored = state
        for _ in range(iterations):
            snap = strategy.snapshot(state)  # checkpoint save
            restored = strategy.snapshot(snap)  # rollback restore
        ok = restored == state
        return 2 * iterations, {"equal_roundtrip": ok, "table_len": len(state.table)}

    return run


@benchmark("snapshot.copy", "micro", "ops")
def _snapshot_copy(quick: bool) -> Workload:
    return _snapshot_workload("copy", quick)


@benchmark("snapshot.pickle", "micro", "ops")
def _snapshot_pickle(quick: bool) -> Workload:
    return _snapshot_workload("pickle", quick)


@dataclass
class _ArrayBenchState(RecordState):
    """Ndarray-backed model state for the block-copy snapshot strategy.

    Falls back to plain lists when numpy is absent so the benchmark still
    runs (measuring the strategy's python fallback, honestly labelled by
    the ``have_numpy`` counter).
    """

    counter: int = 0
    table: Any = None
    shards: Any = None


@benchmark("snapshot.array", "micro", "ops")
def _snapshot_array(quick: bool) -> Workload:
    """The 'array' strategy on ndarray-heavy state: block ndarray.copy()
    instead of element-wise container walks."""
    from ...kernel.state import resolve_snapshot_strategy

    try:
        import numpy as np
    except ImportError:  # degraded: the strategy falls back to RecordState.copy()
        have_numpy = False
        table = list(range(4_096))
        shards = [[0] * 512 for _ in range(4)]
    else:
        have_numpy = True
        table = np.arange(4_096, dtype="<f8")
        shards = [np.zeros(512, dtype="<i8") for _ in range(4)]
    state = _ArrayBenchState(counter=7, table=table, shards=shards)
    strategy = resolve_snapshot_strategy("array")
    iterations = 200 if quick else 1_000

    def run() -> tuple[int, dict[str, Any]]:
        restored = state
        for _ in range(iterations):
            snap = strategy.snapshot(state)
            restored = strategy.snapshot(snap)
        ok = restored.counter == state.counter
        return 2 * iterations, {
            "equal_roundtrip": ok, "have_numpy": have_numpy,
        }

    return run


# --------------------------------------------------------------------- #
# micro: rollback + coast-forward
# --------------------------------------------------------------------- #
@benchmark("rollback.storm", "micro", "events")
def _rollback_storm(quick: bool) -> Workload:
    """Repeated deep stragglers against one object: rollback, state
    restore, anti-message emission and coast-forward, end to end."""
    from dataclasses import dataclass as dc, field as dcfield

    from ...cluster.costmodel import CostModel
    from ...kernel.cancellation import Mode, StaticCancellation
    from ...kernel.checkpointing import StaticCheckpoint
    from ...kernel.event import Event
    from ...kernel.lp import LogicalProcess
    from ...kernel.simobject import SimulationObject
    from ...kernel.state import RecordState

    @dc
    class _LogState(RecordState):
        log: list = dcfield(default_factory=list)

    class _Recorder(SimulationObject):
        def initial_state(self):
            return _LogState()

        def execute_process(self, payload):
            self.state.log.append(payload)

    waves = 8 if quick else 20
    per_wave = 40

    def run() -> tuple[int, dict[str, Any]]:
        lp = LogicalProcess(
            0, CostModel(), resolve_name=lambda n: 0, lp_of=lambda o: 0
        )
        lp.attach(
            _Recorder("o"),
            0,
            cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
            ckpt_policy=StaticCheckpoint(4),
        )
        lp.initialize()
        serial = 0
        base_time = 100.0 * waves
        for wave in range(waves):
            base = base_time - wave * 100.0  # each wave is a deep straggler
            for i in range(per_wave):
                lp.deliver_event(
                    Event(
                        sender=99,
                        receiver=0,
                        send_time=base + i,
                        recv_time=base + i + 1,
                        payload=i,
                        serial=serial,
                    )
                )
                serial += 1
            while lp.execute_one():
                pass
        stats = lp.members[0].stats
        return stats.events_executed + stats.coast_forward_events, {
            "rollbacks": stats.rollbacks,
            "executed": stats.events_executed,
            "coast_forward": stats.coast_forward_events,
            "state_saves": stats.state_saves,
        }

    return run


# --------------------------------------------------------------------- #
# micro: GVT estimation
# --------------------------------------------------------------------- #
@benchmark("gvt.local_min", "micro", "ops")
def _gvt_local_min(quick: bool) -> Workload:
    """The per-round GVT work: scanning every member's input queue and
    comparison buffer for the local lower bound."""
    from ...cluster.costmodel import CostModel
    from ...kernel.cancellation import Mode, StaticCancellation
    from ...kernel.checkpointing import StaticCheckpoint
    from ...kernel.event import Event
    from ...kernel.lp import LogicalProcess
    from ...kernel.simobject import SimulationObject
    from ...kernel.state import RecordState

    from dataclasses import dataclass as dc

    @dc
    class _NullState(RecordState):
        ticks: int = 0

    class _Sink(SimulationObject):
        def initial_state(self):
            return _NullState()

        def execute_process(self, payload):
            self.state.ticks += 1

    members = 16
    pending_per_member = 50
    iterations = 2_000 if quick else 10_000

    lp = LogicalProcess(
        0, CostModel(), resolve_name=lambda n: 0, lp_of=lambda o: 0
    )
    for oid in range(members):
        lp.attach(
            _Sink(f"s{oid}"),
            oid,
            cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
            ckpt_policy=StaticCheckpoint(8),
        )
    lp.initialize()
    serial = 0
    for oid in range(members):
        for i in range(pending_per_member):
            lp.deliver_event(
                Event(
                    sender=99,
                    receiver=oid,
                    send_time=float(i),
                    recv_time=float(i) + 1.0 + oid,
                    payload=None,
                    serial=serial,
                )
            )
            serial += 1

    def run() -> tuple[int, dict[str, Any]]:
        best = 0.0
        for _ in range(iterations):
            best = lp.local_min()
        return iterations, {"local_min": best, "members": members}

    return run


# --------------------------------------------------------------------- #
# macro: the three workloads, end to end
# --------------------------------------------------------------------- #
def _macro_counters(stats) -> dict[str, Any]:
    return {
        "committed_events": stats.committed_events,
        "executed_events": stats.executed_events,
        "rollbacks": stats.rollbacks,
        "state_saves": stats.state_saves,
        "antis_sent": stats.antis_sent,
        "model_time_us": round(stats.execution_time, 3),
    }


@benchmark("macro.phold", "macro", "events")
def _macro_phold(quick: bool) -> Workload:
    """PHOLD under LVT skew: the rollback-heavy reference macro load."""
    from ...apps.phold import PHOLDParams, build_phold
    from ...kernel.config import SimulationConfig
    from ...kernel.kernel import TimeWarpSimulation

    params = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=2)
    end_time = 2_500.0 if quick else 10_000.0

    def run() -> tuple[int, dict[str, Any]]:
        config = SimulationConfig(
            end_time=end_time, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0}
        )
        stats = TimeWarpSimulation(build_phold(params), config).run()
        return stats.committed_events, _macro_counters(stats)

    return run


@benchmark("macro.smmp", "macro", "events")
def _macro_smmp(quick: bool) -> Workload:
    """SMMP: communication-heavy, lazy-cancellation-friendly."""
    from ...apps.smmp import SMMPParams, build_smmp
    from ...bench.harness import SMMP_PROFILE
    from ...kernel.kernel import TimeWarpSimulation

    params = SMMPParams(requests_per_processor=40 if quick else 160)

    def run() -> tuple[int, dict[str, Any]]:
        config = SMMP_PROFILE.config(seed=0)
        stats = TimeWarpSimulation(build_smmp(params), config).run()
        return stats.committed_events, _macro_counters(stats)

    return run


@benchmark("macro.raid", "macro", "events")
def _macro_raid(quick: bool) -> Workload:
    """RAID: heterogeneous grains (sources, forks, disks)."""
    from ...apps.raid import RAIDParams, build_raid
    from ...bench.harness import RAID_PROFILE
    from ...kernel.kernel import TimeWarpSimulation

    params = RAIDParams(requests_per_source=25 if quick else 100)

    def run() -> tuple[int, dict[str, Any]]:
        config = RAID_PROFILE.config(seed=0)
        stats = TimeWarpSimulation(build_raid(params), config).run()
        return stats.committed_events, _macro_counters(stats)

    return run


# --------------------------------------------------------------------- #
# macro: process-sharded parallel backend (wall-clock speedup)
# --------------------------------------------------------------------- #
def _parallel_phold_model(quick: bool):
    from ...apps.phold import PHOLDParams, build_phold

    # High-locality PHOLD: kernighan_lin recovers the blocks, so most
    # traffic stays shard-local and the 2-worker run has parallelism to
    # harvest instead of a rollback storm.
    params = PHOLDParams(
        n_objects=16, n_lps=2, jobs_per_object=3, locality=0.9, seed=5,
    )
    end_time = 4_000.0 if quick else 12_000.0
    return (lambda: build_phold(params)), end_time


def _parallel_smmp_model(quick: bool):
    from ...apps.smmp import SMMPParams, build_smmp

    params = SMMPParams(
        n_processors=8, n_lps=2, n_banks=8,
        requests_per_processor=60 if quick else 200,
    )
    return (lambda: build_smmp(params)), float("inf")


_PARALLEL_MODELS = {"phold": _parallel_phold_model, "smmp": _parallel_smmp_model}


def _parallel_workload(app: str, workers: int, quick: bool) -> Workload:
    """Differentially-validated parallel run of ``app``.

    Golden result and shard assignment are computed once at make() time,
    outside the timed region, so run() measures execution only.  The
    committed counters are checked against the sequential golden every
    repetition — a mismatch raises, which both fails the benchmark and
    keeps the reported counters deterministic (timing.measure flags any
    cross-repetition counter drift as corruption).
    """
    from collections import Counter

    from ...kernel.config import SimulationConfig
    from ...parallel.backend import ParallelSimulation, resolve_strategy
    from ...partition.graph import profile_model
    from ...sequential import SequentialSimulation

    builder, end_time = _PARALLEL_MODELS[app](quick)
    seq = SequentialSimulation(
        [obj for group in builder() for obj in group],
        record_trace=True, end_time=end_time,
    )
    seq.run()
    expected_total = seq.events_executed
    expected_counts = Counter(entry[1] for entry in seq.trace)
    expected_states = {obj.name: obj.state for obj in seq.objects}

    graph = profile_model(
        [obj for group in builder() for obj in group],
        end_time=end_time, max_events=200_000,
    )
    assignment = resolve_strategy("kernighan_lin")(graph, workers)

    def run() -> tuple[int, dict[str, Any]]:
        from ...comm.aggregation import FixedWindow

        config = SimulationConfig(
            backend="parallel", workers=workers, end_time=end_time,
            max_executed_events=2_000_000,
            # a modest FAW window so the IPC path runs batched, as a
            # deployment would (docs/parallel.md)
            aggregation=lambda _lp: FixedWindow(50.0),
        )
        sim = ParallelSimulation(builder(), config, shard_map=assignment)
        stats = sim.run()
        if sim.violations:
            raise RuntimeError(
                f"parallel.{app}: {len(sim.violations)} invariant "
                f"violation(s): {sim.violations[:3]}"
            )
        if stats.committed_events != expected_total:
            raise RuntimeError(
                f"parallel.{app}: committed {stats.committed_events} != "
                f"sequential golden {expected_total}"
            )
        for name, want in expected_counts.items():
            got = stats.per_object[name].events_committed
            if got != want:
                raise RuntimeError(
                    f"parallel.{app}: {name} committed {got} != {want}"
                )
        for name, state in expected_states.items():
            if sim.final_states[name] != state:
                raise RuntimeError(
                    f"parallel.{app}: final state of {name} diverged"
                )
        return stats.committed_events, {
            "committed_events": stats.committed_events,
            "matches_sequential": True,
            "workers": workers,
            # (commit_index, active_workers) steps; report.make_document
            # lifts this into entry provenance so elastic runs compare by
            # trajectory, not a single misleading worker count
            "worker_timeline": [list(step) for step in sim.worker_timeline],
        }

    return run


@benchmark("parallel.phold", "macro", "events", backend="parallel", workers=2,
           wire="shm")
def _parallel_phold(quick: bool) -> Workload:
    """PHOLD across 2 worker processes, validated against sequential."""
    return _parallel_workload("phold", 2, quick)


@benchmark("parallel.phold.1w", "macro", "events", backend="parallel",
           workers=1, wire=None)  # one worker: no inter-shard wire at all
def _parallel_phold_1w(quick: bool) -> Workload:
    """Single-worker baseline for the parallel.phold speedup ratio."""
    return _parallel_workload("phold", 1, quick)


@benchmark("parallel.smmp", "macro", "events", backend="parallel", workers=2,
           wire="shm")
def _parallel_smmp(quick: bool) -> Workload:
    """SMMP across 2 worker processes, validated against sequential."""
    return _parallel_workload("smmp", 2, quick)


@benchmark("parallel.smmp.1w", "macro", "events", backend="parallel",
           workers=1, wire=None)  # one worker: no inter-shard wire at all
def _parallel_smmp_1w(quick: bool) -> Workload:
    """Single-worker baseline for the parallel.smmp speedup ratio."""
    return _parallel_workload("smmp", 1, quick)


# --------------------------------------------------------------------- #
# suite runner
# --------------------------------------------------------------------- #
def run_suite(
    *,
    quick: bool = False,
    reps: int = 3,
    warmup: int = 1,
    only: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, tuple[Benchmark, Measurement]]:
    """Run every registered benchmark (or those matching ``only``).

    Returns ``{name: (benchmark, measurement)}`` in registration order.
    """
    selected = {
        name: bench
        for name, bench in REGISTRY.items()
        if only is None or only in name
    }
    if not selected:
        raise ValueError(
            f"no benchmark matches {only!r}; available: {sorted(REGISTRY)}"
        )
    results: dict[str, tuple[Benchmark, Measurement]] = {}
    for name, bench in selected.items():
        if progress is not None:
            progress(name)
        results[name] = (bench, bench.run(quick=quick, reps=reps, warmup=warmup))
    return results
