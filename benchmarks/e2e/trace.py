"""The per-layer pass: where the time goes, recorded from the benchmark's side.

End-to-end numbers are always taken with this off.  Here ``cProfile``
runs around construction + ``run()``; for the process backend the name
``repro.parallel.backend.worker_main`` is wrapped for the duration of a
rep so every forked shard profiles itself and dumps its ``pstats`` into a
work directory, which the parent merges with its own (coordinator)
profile.  Functions are grouped by defining module into the layers of
:data:`LAYERS` through the one table :data:`MODULE_LAYERS`.

Reading the numbers: ``<layer>.self_share`` is the layer's summed
``tottime`` (self time, callees excluded) over the total of the merged
profile.  cProfile charges wall time, so on ``par_*`` blocking calls
(``time.sleep`` between GVT rounds, queue waits) land in ``builtins``,
and the total spans three processes.  Profiling inflates call-heavy
layers more than C-heavy ones; ``bench.trace_overhead_x`` says by how
much overall.  Use the shares to find candidates, never to claim a gain.
"""

from __future__ import annotations

import cProfile
import contextlib
import dataclasses
import os
import pstats
import statistics
import tempfile
from collections import Counter
from pathlib import Path

import repro
import repro.parallel.backend as parallel_backend

from estimate import ref_seconds
from probe import run_probe
from reps import account, ok_ref_s, run_rep, series_summary, timed_series

REPRO_ROOT = Path(repro.__file__).resolve().parent
#: shards dump their pstats here (inside the checkout; git-ignored)
WORK_ROOT = Path(__file__).resolve().parent / ".work"

#: every layer a metric is reported for, in ladder order
LAYERS = (
    "apps",
    "kernel.lp", "kernel.arena", "kernel.queues", "kernel.state",
    "kernel.event", "kernel.cancellation",
    "cluster.executive", "comm", "core", "control", "gvt", "stats",
    "parallel.backend", "parallel.worker", "parallel.gvt", "parallel.wire",
    "parallel.shm", "parallel.ipc",
    "partition",
    "builtins",
)

#: module path under ``src/repro`` (no ``.py``) -> layer.  An exact module
#: entry wins over its package entry; ``kernel`` and ``parallel`` have no
#: package entry on purpose, so a new module there must be placed by hand
#: (tests/test_e2e_layers.py fails until it is).
MODULE_LAYERS = {
    "apps": "apps",
    "kernel/lp": "kernel.lp",
    # the LP's facade, object API and plumbing: no hot loop of their own
    "kernel/kernel": "kernel.lp",
    "kernel/simobject": "kernel.lp",
    "kernel/config": "kernel.lp",
    "kernel/errors": "kernel.lp",
    "kernel/migration": "kernel.lp",
    "kernel/__init__": "kernel.lp",
    "kernel/arena": "kernel.arena",
    "kernel/queues": "kernel.queues",
    "kernel/state": "kernel.state",
    "kernel/checkpointing": "kernel.state",
    "kernel/event": "kernel.event",
    "kernel/cancellation": "kernel.cancellation",
    "cluster": "cluster.executive",
    "comm": "comm",
    "core": "core",
    "control": "control",
    "gvt": "gvt",
    "stats": "stats",
    "parallel/backend": "parallel.backend",
    "parallel/validate": "parallel.backend",
    "parallel/__init__": "parallel.backend",
    "parallel/worker": "parallel.worker",
    "parallel/transport": "parallel.worker",
    "parallel/gvt": "parallel.gvt",
    "parallel/wire": "parallel.wire",
    "parallel/shm": "parallel.shm",
    "parallel/ipc": "parallel.ipc",
    "partition": "partition",
    # the sequential kernel runs inside a profiled region only as
    # profile_model's engine, i.e. as part of partitioning
    "sequential": "partition",
}

#: everything else: C built-ins, the standard library, numpy, this
#: benchmark's own wrapper, and the repro packages that only contribute
#: disabled hooks to a run (trace, oracle, faults, bench, verify)
CATCH_ALL = "builtins"

TRACED_REPS = 3
UNTRACED_SECONDS = 3.0
UNTRACED_MIN_REPS = 8
SIDE_REPS = 5
FIXED_OVERHEAD_END_TIME = 50.0


def layer_of_module(module: str) -> str | None:
    """Layer of ``module`` (``"kernel/lp"``), or None if the table has no
    place for it."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return MODULE_LAYERS.get(module.split("/", 1)[0])


def layer_of_file(filename: str) -> str:
    """Layer of a profiled function's source file."""
    try:
        relative = Path(filename).resolve().relative_to(REPRO_ROOT)
    except ValueError:  # built-in ("~"), stdlib, numpy, the benchmark
        return CATCH_ALL
    return layer_of_module(relative.with_suffix("").as_posix()) or CATCH_ALL


def layer_table(stats: pstats.Stats, committed: int) -> dict[str, float]:
    """``<layer>.self_share`` and ``<layer>.calls_per_event`` of one profile."""
    self_time: Counter = Counter()
    calls: Counter = Counter()
    cache: dict[str, str] = {}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in (
        stats.stats.items()
    ):
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = layer_of_file(filename)
        self_time[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_time.values()) or 1.0
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / total
        out[f"{layer}.calls_per_event"] = calls[layer] / committed
    return out


# --------------------------------------------------------------------- #
# profiling one rep, shards included
# --------------------------------------------------------------------- #
def _self_profiling(worker_main, dump_dir: Path):
    """``worker_main`` that profiles its own process and dumps pstats."""

    def profiled_worker_main(shard_id, *args, **kwargs):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            worker_main(shard_id, *args, **kwargs)
        finally:
            profiler.disable()
            profiler.dump_stats(dump_dir / f"shard-{shard_id}-{os.getpid()}.pstats")

    return profiled_worker_main


@contextlib.contextmanager
def profiled(dump_dir: Path, sink: list):
    """Profile the enclosed block in this process and in every shard it
    forks; append the merged :class:`pstats.Stats` to ``sink``."""
    original = parallel_backend.worker_main
    parallel_backend.worker_main = _self_profiling(original, dump_dir)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        parallel_backend.worker_main = original
        merged = pstats.Stats(profiler)
        for dump in sorted(dump_dir.glob("shard-*.pstats")):
            merged.add(str(dump))
            dump.unlink()
        sink.append(merged)


def shm_entries() -> int:
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


# --------------------------------------------------------------------- #
# counters read off the public run results
# --------------------------------------------------------------------- #
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counters(sim, stats) -> dict[str, float]:
    committed = stats.committed_events
    out = {
        "kernel.lp.commit_efficiency": stats.efficiency,
        "kernel.lp.rollbacks_per_kevent": _ratio(1e3 * stats.rollbacks, committed),
        "kernel.lp.coast_forward_per_event": _ratio(
            stats.coast_forward_events, committed
        ),
        "kernel.state.saves_per_event": _ratio(stats.state_saves, committed),
        "kernel.state.peak_state_bytes": stats.peak_state_bytes,
        "kernel.cancellation.antis_per_event": _ratio(stats.antis_sent, committed),
        "kernel.cancellation.lazy_hit_ratio": _ratio(
            stats.lazy_hits, stats.lazy_hits + stats.lazy_misses
        ),
        "comm.events_per_physical_msg": _ratio(
            stats.events_on_wire, stats.physical_messages
        ),
        "comm.bytes_on_wire_per_event": _ratio(stats.bytes_on_wire, committed),
        "gvt.rounds": stats.gvt_rounds,
        "core.control_invocations_per_kevent": _ratio(
            1e3 * sum(o.control_invocations for o in stats.per_object.values()),
            committed,
        ),
    }
    wire_stats = getattr(sim, "wire_stats", None)
    if wire_stats is not None:  # the process backend
        out.update({
            "parallel.wire.frames_per_kevent": _ratio(
                1e3 * wire_stats["frames_sent"], committed
            ),
            "parallel.wire.fallbacks": wire_stats["wire_fallbacks"],
            "parallel.shm.ring_bytes_per_event": _ratio(
                wire_stats["ring_bytes_sent"], committed
            ),
            "parallel.gvt.rounds": sim.gvt_rounds_run,
            "parallel.gvt.passes_per_round": _ratio(
                sim.gvt_passes_run, sim.gvt_rounds_run
            ),
        })
    return out


# --------------------------------------------------------------------- #
# small probe-bracketed side measurements
# --------------------------------------------------------------------- #
def sequential_rate(instance) -> float:
    """Committed events per reference second of the sequential kernel."""
    rates = []
    before = run_probe()
    for _ in range(SIDE_REPS):
        golden = instance.compute_golden()
        after = run_probe()
        rates.append(golden.total / ref_seconds(golden.wall_s, before, after))
        before = after
    return statistics.median(rates)


def fixed_overhead_ref_ms(instance, log: list) -> float:
    """Reference ms of a parallel run with (almost) nothing to simulate."""
    tiny = dataclasses.replace(
        instance,
        config=dataclasses.replace(instance.config, end_time=FIXED_OVERHEAD_END_TIME),
        golden=None, assignments={},
    )
    tiny.compute_golden()
    reps = timed_series([tiny], seconds=0.0, min_reps=SIDE_REPS)
    log.extend(reps)
    ref_s = ok_ref_s(reps)
    return 1e3 * statistics.median(ref_s) if ref_s else 0.0


def speedup_2w_over_1w(instance, log: list) -> float:
    """Median over interleaved pairs of (1-worker ref s) / (2-worker ref s)."""
    one_worker = dataclasses.replace(instance.config, workers=1)
    ratios = []
    for _ in range(SIDE_REPS):
        pair = []
        for config in (one_worker, instance.config):
            reps = timed_series(
                [instance], seconds=0.0, min_reps=1, config=config
            )
            log.extend(reps)
            pair.extend(ok_ref_s(reps))
        if len(pair) == 2:
            ratios.append(pair[0] / pair[1])
    return statistics.median(ratios) if ratios else 0.0


# --------------------------------------------------------------------- #
def trace_pass(workload, seed: int) -> dict:
    """Every per-layer metric of ``workload`` at ``seed``.

    Metrics that do not apply to the workload (``parallel.*`` and
    ``partition.*`` on the modelled pair) are absent from ``metrics``.
    """
    instance = workload.batch(seed)[0]  # one model is enough to see where time goes
    instance.compute_golden()
    model_rates: dict = {}
    log: list[dict] = []  # every rep attempted, for the failure account

    # warm caches and the placement, then an untraced reference series
    log.append(run_rep(instance, model_rates=model_rates, full=True))
    untraced = timed_series(
        [instance], seconds=UNTRACED_SECONDS, min_reps=UNTRACED_MIN_REPS,
        model_rates=model_rates,
    )
    log.extend(untraced)

    # traced reps: profile construction + run, shards included
    WORK_ROOT.mkdir(exist_ok=True)
    profiles: list[pstats.Stats] = []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as dump_dir:
        dump_path = Path(dump_dir)
        shm_before = shm_entries()
        traced = timed_series(
            [instance], seconds=0.0, min_reps=TRACED_REPS,
            model_rates=model_rates, full=True,
            around_run=lambda: profiled(dump_path, profiles),
            inspect=lambda sim, stats: {"counters": counters(sim, stats)},
        )
        leaked = shm_entries() - shm_before
    log.extend(traced)

    metrics: dict[str, float] = {}
    # a failed traced rep still leaves its profile behind: pair by position
    tables = [
        {**layer_table(profile, rec["committed"]), **rec.pop("counters")}
        for rec, profile in zip(traced, profiles) if rec["ok"]
    ]
    if tables and any(r["ok"] for r in untraced):
        for name in tables[0]:
            metrics[name] = statistics.median(t[name] for t in tables)
        summary = series_summary(untraced)
        del summary["events_per_ref_s"]
        metrics.update(summary)
        metrics["bench.trace_overhead_x"] = (
            statistics.median(ok_ref_s(traced)) / summary["bench.rep_ref_s_p50"]
        )
        metrics["sequential.events_per_ref_s"] = sequential_rate(instance)
        if instance.backend == "parallel":
            metrics["parallel.shm.leaked_segments"] = leaked
            metrics["parallel.backend.fixed_overhead_ref_ms"] = (
                fixed_overhead_ref_ms(instance, log)
            )
            metrics["parallel.backend.speedup_2w_over_1w"] = (
                speedup_2w_over_1w(instance, log)
            )
        else:  # layers the modelled executive never enters
            for name in [n for n in metrics if n.startswith(("parallel.", "partition."))]:
                del metrics[name]
    return {
        "workload": workload.name,
        **account(log),
        "provenance": instance.provenance(
            {r["wire"] for r in untraced + traced if "wire" in r}
        ),
        "metrics": metrics,
        "bench": {},
    }
