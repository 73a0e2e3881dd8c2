"""Experiment harness: profiles, replicated runs, result records.

The paper's measurement protocol: five sets of measurements taken at two
different times of day on a non-dedicated NOW, averaged.  Here a
*replicate* is a run with a different network-jitter seed (the modelled
"background load"); everything else is deterministic, so error bars are
honest consequences of load variation rather than measurement noise.

An :class:`ExperimentProfile` fixes the modelled cluster for one
experiment — workstation speed spread and network jitter — mirroring how
each of the paper's figures is one measurement campaign on one cluster
state.  The profiles used per figure are documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..cluster.costmodel import NetworkModel
from ..kernel.config import SimulationConfig
from ..kernel.kernel import TimeWarpSimulation
from ..kernel.simobject import SimulationObject
from ..stats.counters import RunStats
from ..trace.tracer import Tracer

Builder = Callable[[], Sequence[Sequence[SimulationObject]]]

#: When set (``repro-bench figures --trace DIR`` or :func:`set_trace_dir`), every
#: :func:`run_cell` replicate dumps its controller-decision trace here as
#: ``<label>_x<x>_s<seed>.jsonl`` alongside the figure's results.
_trace_dir: Path | None = None


def set_trace_dir(path: str | Path | None) -> None:
    """Dump a JSONL trace per benchmark replicate into ``path`` (None = off)."""
    global _trace_dir
    _trace_dir = Path(path) if path is not None else None


def _trace_path(directory: Path, label: str, x: float, seed: int) -> Path:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return directory / f"{slug}_x{x:g}_s{seed}.jsonl"


@dataclass(frozen=True)
class ExperimentProfile:
    """The modelled cluster one experiment runs on."""

    name: str
    #: per-LP CPU slowdown factors (SPARC 4/5 mix + background load)
    speed_factors: dict[int, float]
    #: network background-load jitter amplitude
    jitter: float = 0.4
    #: GVT period in wall-clock µs
    gvt_period: float = 50_000.0

    def config(self, *, seed: int = 0, **overrides: Any) -> SimulationConfig:
        base: dict[str, Any] = dict(
            lp_speed_factors=dict(self.speed_factors),
            network=NetworkModel(jitter=self.jitter, seed=seed),
            gvt_period=self.gvt_period,
        )
        base.update(overrides)
        return SimulationConfig(**base)


#: SMMP campaigns ran while the NOW was busiest (wide SPARC-4/5 spread):
#: this is the regime where cancellation strategy matters most for a
#: fully lazy-friendly model.
SMMP_PROFILE = ExperimentProfile(
    "smmp-now", speed_factors={1: 1.2, 2: 1.4, 3: 1.7}, jitter=0.4
)

#: RAID campaigns ran on a lightly loaded NOW (mild spread): forks roll
#: back rarely, disks dominate, and the per-object strategy split shows.
RAID_PROFILE = ExperimentProfile(
    "raid-now", speed_factors={1: 1.05, 2: 1.1, 3: 1.15}, jitter=0.4
)


@dataclass
class RunResult:
    """One measured cell of a figure: averaged replicates of one config."""

    label: str
    x: float
    execution_time_us: float
    stddev_us: float
    replicates: int
    committed_events: int
    committed_per_second: float
    rollbacks: float
    physical_messages: float
    wall_seconds: float
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def execution_time_s(self) -> float:
        return self.execution_time_us / 1e6


def run_cell(
    label: str,
    x: float,
    build: Builder,
    profile: ExperimentProfile,
    *,
    replicates: int = 3,
    stat_hook: Callable[[TimeWarpSimulation, RunStats], dict] | None = None,
    trace_dir: str | Path | None = None,
    make_sim: Callable[[Any, SimulationConfig], Any] = TimeWarpSimulation,
    **config_overrides: Any,
) -> RunResult:
    """Run ``replicates`` seeded runs of one configuration and average.

    ``make_sim(partition, config)`` builds the kernel under measurement
    (anything whose ``run()`` returns :class:`RunStats`).

    ``trace_dir`` (or a global default installed with :func:`set_trace_dir`)
    makes every replicate dump its controller-decision trace as JSONL next
    to the figure's results."""
    times: list[float] = []
    committed = rollbacks = messages = 0.0
    events = 0
    extra: dict[str, Any] = {}
    traces = Path(trace_dir) if trace_dir is not None else _trace_dir
    if traces is not None:
        traces.mkdir(parents=True, exist_ok=True)
    wall_start = time.perf_counter()
    for seed in range(replicates):
        config = profile.config(seed=seed, **config_overrides)
        tracer = None
        if traces is not None:
            tracer = Tracer.to_path(_trace_path(traces, label, x, seed))
            config.tracer = tracer
        sim = make_sim(build(), config)
        try:
            stats = sim.run()
        finally:
            if tracer is not None:
                tracer.close()
        times.append(stats.execution_time)
        committed += stats.committed_events
        rollbacks += stats.rollbacks
        messages += stats.physical_messages
        events = stats.committed_events
        if stat_hook is not None:
            extra.update(stat_hook(sim, stats))
    mean = sum(times) / len(times)
    variance = sum((t - mean) ** 2 for t in times) / len(times)
    return RunResult(
        label=label,
        x=x,
        execution_time_us=mean,
        stddev_us=math.sqrt(variance),
        replicates=replicates,
        committed_events=events,
        committed_per_second=committed / (sum(times) / 1e6),
        rollbacks=rollbacks / replicates,
        physical_messages=messages / replicates,
        wall_seconds=time.perf_counter() - wall_start,
        extra=extra,
    )


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale a paper-sized workload parameter down for quick runs."""
    return max(minimum, int(round(value * scale)))
