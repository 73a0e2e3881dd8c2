"""Ablation studies (DESIGN.md A1-A7): design choices the paper discusses
but does not plot.

Each ``ablation_*`` is the one definition of its sweep — grid, workload,
profile, seeds — and returns :class:`~repro.bench.harness.RunResult`
rows, so ``repro-bench figures --ablation NAME`` prints the table that
``benchmarks/bench_abl_*.py`` asserts the shape of (exactly as
``benchmarks/bench_fig*.py`` import :mod:`repro.bench.figures`):

* **checkpoint** (A1) — the static checkpoint-interval U-curve that
  motivates dynamic adjustment, plus both dynamic transfer functions.
* **cancellation** (A2) — DC sensitivity to filter depth and thresholds
  (the anti-thrashing trio of Section 5).
* **control-period** (A3) — tuning overhead vs adaptivity: "control
  should not be adapted at a high frequency, or the overhead for tuning
  will outweigh the benefits" (Section 3).
* **gvt-period** (A4) — GVT frequency: memory reclamation vs overhead.
* **time-window** (A5) — optimism throttling, static widths vs adaptive.
* **partitioning** (A6) — partition strategy x cancellation.
* **conservative** (A7) — Time Warp vs the conservative kernel.
"""

from __future__ import annotations

from ..apps.phold import PHOLDParams, build_phold
from ..apps.smmp import SMMPParams, build_smmp
from ..conservative import ConservativeSimulation
from ..core.cancellation_controller import DynamicCancellation
from ..core.checkpoint_controller import DynamicCheckpoint, HillClimbCheckpoint
from ..core.window_controller import AdaptiveTimeWindow, StaticTimeWindow
from ..kernel.checkpointing import StaticCheckpoint
from ..partition import (
    apply_assignment,
    greedy_growth,
    kernighan_lin,
    partition_quality,
    profile_model,
    round_robin,
)
from .figures import AC, LC, raid_builder, smmp_builder
from .harness import (
    RAID_PROFILE,
    SMMP_PROFILE,
    ExperimentProfile,
    RunResult,
    run_cell,
    scaled,
)

CHECKPOINT_CHIS = (1, 4, 16, 32, 64, 128, 256)
CONTROL_PERIODS = (2, 8, 16, 64, 256)
GVT_PERIODS = (2_000.0, 10_000.0, 50_000.0, 400_000.0)
WINDOWS = (50.0, 200.0, 1_000.0, 5_000.0)

#: heavily skewed cluster: PHOLD rolls back 10-20 % of events here, which
#: is what makes long coast-forwards expensive
PHOLD_STRESS = ExperimentProfile(
    "phold-stress", speed_factors={1: 1.3, 2: 1.6, 3: 2.0}, jitter=0.4
)
PHOLD_SKEWED = ExperimentProfile(
    "phold-skewed", speed_factors={1: 1.4, 2: 1.8, 3: 2.4}, jitter=0.4,
    gvt_period=20_000.0,
)
BALANCED = ExperimentProfile("balanced", speed_factors={}, jitter=0.4)
SKEWED = ExperimentProfile(
    "skewed", speed_factors={1: 1.2, 2: 1.4, 3: 1.7}, jitter=0.4
)


def phold_builder(**params):
    """16 objects on 4 LPs, 4 jobs each: the rollback-heavy PHOLD of A1/A5
    and of the PHOLD sweeps of ``repro-bench ablate``."""
    phold = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=4, **params)
    return lambda: build_phold(phold)


def ablation_checkpoint(scale: float = 0.1, replicates: int = 3) -> list[RunResult]:
    """A1: static chi U-curve and both dynamic policies, large-state PHOLD."""
    build = phold_builder(state_size_ints=256)
    common = dict(replicates=replicates, cancellation=LC,
                  end_time=8_000.0 * scale / 0.1)
    results = [
        run_cell(f"chi={chi}", chi, build, PHOLD_STRESS,
                 checkpoint=lambda o, c=chi: StaticCheckpoint(c), **common)
        for chi in CHECKPOINT_CHIS
    ]
    results.append(
        run_cell("dynamic", 0, build, PHOLD_STRESS,
                 checkpoint=lambda o: DynamicCheckpoint(period=16), **common)
    )
    results.append(
        run_cell("hillclimb", 0, build, PHOLD_STRESS,
                 checkpoint=lambda o: HillClimbCheckpoint(period=16, step=2),
                 **common)
    )
    return results


def ablation_cancellation(scale: float = 0.15, replicates: int = 3) -> list[RunResult]:
    """A2: DC parameter sensitivity on RAID; ``extra["switches"]`` counts
    mode switches over all objects."""
    build = raid_builder(scaled(1000, scale))
    cases = {
        "fd=4": dict(filter_depth=4, period=2),
        "fd=16 (paper)": dict(filter_depth=16, period=8),
        "fd=64": dict(filter_depth=64, period=16),
        "no dead zone": dict(filter_depth=16, a2l_threshold=0.4,
                             l2a_threshold=0.4, period=8),
        "wide dead zone": dict(filter_depth=16, a2l_threshold=0.6,
                               l2a_threshold=0.1, period=8),
    }

    def switches(_sim, stats):
        return {
            "switches": sum(o.mode_switches for o in stats.per_object.values())
        }

    return [
        run_cell(name, 0, build, RAID_PROFILE, replicates=replicates,
                 stat_hook=switches,
                 cancellation=lambda o, kw=kwargs: DynamicCancellation(**kw))
        for name, kwargs in cases.items()
    ]


def ablation_control_period(scale: float = 0.1, replicates: int = 3) -> list[RunResult]:
    """A3: checkpoint-controller invocation period P vs no control."""
    build = smmp_builder(scaled(1000, scale))
    common = dict(replicates=replicates, cancellation=LC)
    return [
        run_cell("static chi=1", 0, build, SMMP_PROFILE,
                 checkpoint=lambda o: StaticCheckpoint(1), **common)
    ] + [
        run_cell(f"P={period}", period, build, SMMP_PROFILE,
                 checkpoint=lambda o, p=period: DynamicCheckpoint(period=p),
                 **common)
        for period in CONTROL_PERIODS
    ]


def ablation_gvt_period(scale: float = 0.1, replicates: int = 3) -> list[RunResult]:
    """A4: GVT period x algorithm on RAID; ``extra["peak_state_queue"]``
    is the history left un-reclaimed."""
    build = raid_builder(scaled(1000, scale))
    return [
        run_cell(algorithm, period, build, RAID_PROFILE,
                 replicates=replicates,
                 stat_hook=lambda sim, stats: {
                     "peak_state_queue": stats.peak_state_entries
                 },
                 gvt_algorithm=algorithm, gvt_period=period)
        for period in GVT_PERIODS
        for algorithm in ("omniscient", "mattern")
    ]


def ablation_time_window(scale: float = 0.1, replicates: int = 3) -> list[RunResult]:
    """A5: optimism throttling — static window sweep vs adaptive."""
    build = phold_builder()
    common = dict(replicates=replicates, end_time=6_000.0 * scale / 0.1)
    results = [run_cell("unbounded", 0, build, PHOLD_SKEWED, **common)]
    results += [
        run_cell(f"static W={window:g}", window, build, PHOLD_SKEWED,
                 time_window=lambda w=window: StaticTimeWindow(w), **common)
        for window in WINDOWS
    ]
    results.append(
        run_cell("adaptive", 0, build, PHOLD_SKEWED,
                 time_window=lambda: AdaptiveTimeWindow(min_window=20.0),
                 **common)
    )
    return results


def ablation_partitioning(scale: float = 0.1, replicates: int = 3) -> list[RunResult]:
    """A6: partitioning strategies x cancellation on SMMP; ``x`` and
    ``extra["cut_fraction"]`` carry the partition's cut (-1: hand-crafted)."""
    params = SMMPParams(requests_per_processor=scaled(1000, scale))

    def flat(p):
        return [obj for group in build_smmp(p) for obj in group]

    graph = profile_model(flat(SMMPParams(requests_per_processor=30)))
    results = []
    for name, strategy in (
        ("hand-crafted", None), ("round-robin", round_robin),
        ("greedy", greedy_growth), ("kernighan-lin", kernighan_lin),
    ):
        if strategy is None:
            cut = -1.0

            def build():
                return build_smmp(params)
        else:
            assignment = strategy(graph, 4)
            cut = partition_quality(graph, assignment)["cut_fraction"]

            def build(a=assignment):
                return apply_assignment(flat(params), a, 4)

        for mode_name, cancellation in (("AC", AC), ("LC", LC)):
            result = run_cell(f"{name}/{mode_name}", max(cut, 0.0), build,
                              SMMP_PROFILE, replicates=replicates,
                              cancellation=cancellation)
            result.extra["cut_fraction"] = cut
            results.append(result)
    return results


def ablation_conservative(scale: float = 0.1, replicates: int = 3) -> list[RunResult]:
    """A7: lazy Time Warp vs the conservative kernel on low-lookahead SMMP."""
    build = smmp_builder(scaled(1000, scale))
    results = []
    for profile, tag in ((BALANCED, "balanced"), (SKEWED, "skewed NOW")):
        results.append(
            run_cell(f"TW lazy / {tag}", 0.0, build, profile,
                     replicates=replicates, cancellation=LC)
        )
        results.append(
            run_cell(f"conservative / {tag}", 0.0, build, profile,
                     replicates=replicates, make_sim=ConservativeSimulation)
        )
    return results


#: name -> (sweep, table title)
ABLATIONS = {
    "checkpoint": (
        ablation_checkpoint, "A1 — static chi U-curve vs dynamic (PHOLD)"),
    "cancellation": (
        ablation_cancellation, "A2 — DC parameter sensitivity (RAID)"),
    "control-period": (
        ablation_control_period, "A3 — control invocation period (SMMP)"),
    "gvt-period": (
        ablation_gvt_period, "A4 — GVT period and algorithm (RAID)"),
    "time-window": (
        ablation_time_window, "A5 — bounded time windows (PHOLD, skewed NOW)"),
    "partitioning": (
        ablation_partitioning,
        "A6 — partitioning strategies x cancellation (SMMP)"),
    "conservative": (
        ablation_conservative,
        "A7 — Time Warp vs conservative (SMMP, lookahead 1 ns)"),
}
