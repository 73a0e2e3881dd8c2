"""Coverage-guided configuration-lattice fuzzing with repro capture.

Generation is seeded: scenario ``i`` of a ``run_fuzz(budget, seed)``
sweep depends only on ``(seed, i)`` and on the results of scenarios
``0..i-1`` through the coverage map.  With ``allow_parallel=False`` the
whole sweep is bit-for-bit deterministic; process-sharded runs commit a
deterministic *result* but their rollback/anti-message counts depend on
the OS schedule, so their coverage features — and hence the generation
sequence after them — can differ between sweeps.  Knob values are drawn with weights inversely proportional
to how often their coverage feature has been seen, so generation drifts
toward unexplored lattice regions the way a grey-box fuzzer chases rare
branches.

Every run goes through :func:`repro.verify.runner.run_scenario` and its
full check battery.  A failing scenario is greedily shrunk
(:mod:`repro.verify.shrink`) and written as a replayable
``repro_<id>.json``; scenarios that discovered new coverage are reported
so interesting corners can be promoted into ``tests/corpus/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from ..control.registry import KNOBS
from ..kernel.cancellation import Mode
from ..kernel.config import RUN_BY, STEP_KINDS
from .corpus import write_repro
from .coverage import CoverageMap
from .runner import ScenarioResult, fork_available, run_scenario
from .scenario import APP_SPECS, AXES, Scenario
from .shrink import ShrinkResult, shrink

#: apps the generator draws from, with weights (PHOLD is the rollback
#: workhorse; pingpong keeps a cheap smoke lane in every sweep)
APP_WEIGHTS = (("phold", 8), ("smmp", 5), ("raid", 4), ("pingpong", 3))

#: fault rates the generator mixes (reliable transport stays on: an
#: unreliable wire diverges *by design* and is covered by directed tests)
FAULT_RATE_VALUES = (0.0, 0.02, 0.05, 0.10)

GVT_PERIODS = (5_000.0, 20_000.0, 50_000.0, 200_000.0)
PHOLD_END_TIMES = (120.0, 200.0, 300.0)

#: how often each run-script step kind is drawn (mostly migrations, the
#: occasional worker join/leave)
STEP_WEIGHTS = {"set": 1, "migrate": 3, "join": 1, "leave": 1}


@dataclass
class FuzzFailure:
    """One divergence: the original, its shrink, and the repro file."""

    result: ScenarioResult
    shrunk: ShrinkResult
    repro_path: str


@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep."""

    seed: int
    budget: int
    coverage: CoverageMap
    results: list[ScenarioResult] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)
    #: scenarios that contributed never-seen features (corpus candidates)
    novel: list[tuple[Scenario, tuple[str, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def backends_explored(self) -> list[str]:
        return self.coverage.covered("backend:")

    def render(self) -> str:
        wall = sum(r.wall_s for r in self.results)
        lines = [
            f"fuzzed {len(self.results)} scenario(s) "
            f"(seed={self.seed}, {wall:.1f}s simulated wall)",
            self.coverage.render(),
        ]
        lines.append(
            "explored backends/variants: "
            + ", ".join(self.backends_explored())
        )
        for failure in self.failures:
            lines.append(f"  {failure.result.describe()}")
            lines.append(
                f"    shrunk in {failure.shrunk.runs} run(s) -> "
                f"{failure.repro_path}"
            )
        lines.append(
            "PASS (zero divergences)"
            if self.ok
            else f"FAIL ({len(self.failures)} divergence(s))"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# biased drawing
# --------------------------------------------------------------------- #
def _draw(rng: random.Random, coverage: CoverageMap, pairs: list) -> object:
    """Pick a (value, feature) pair, weighted toward unseen features."""
    weights = [1.0 / (1.0 + coverage.seen(feature)) for _value, feature in pairs]
    return rng.choices([value for value, _ in pairs], weights=weights)[0]


def _draw_step(rng: random.Random, kind: str, partition: list) -> dict:
    """One run-script step of ``kind``; a ``set`` step draws a knob the
    MetaController does not own, one of its static values and a target
    in ``partition``."""
    if kind != "set":
        return {"kind": kind, "count": rng.randrange(1, 3)}
    spec = rng.choice([s for s in KNOBS.values() if not s.meta_managed])
    value = rng.choice(spec.static_values)[1]
    step = {
        "kind": kind, "knob": spec.name,
        "value": value.value if isinstance(value, Mode) else value,
    }
    if spec.target == "object":
        step["target"] = rng.choice([o.name for group in partition for o in group])
    elif spec.target == "lp":
        step["target"] = rng.randrange(len(partition))
    return step


def generate_scenario(
    rng: random.Random,
    coverage: CoverageMap,
    seed: int,
    *,
    allow_parallel: bool = True,
) -> Scenario:
    """One seeded scenario, biased toward unexplored lattice features."""
    app = rng.choices(
        [name for name, _ in APP_WEIGHTS],
        weights=[
            weight / (1.0 + coverage.seen(f"app:{name}"))
            for name, weight in APP_WEIGHTS
        ],
    )[0]
    backends = [("modelled", "backend:modelled", 10),
                ("conservative", "backend:conservative", 2)]
    if allow_parallel and fork_available():
        backends += [("parallel-1", "backend:parallel:1", 1),
                     ("parallel-2", "backend:parallel:2", 2)]
    backend_pick = rng.choices(
        [b for b, _, _ in backends],
        weights=[w / (1.0 + coverage.seen(f)) for _, f, w in backends],
    )[0]
    backend, workers = (
        ("parallel", int(backend_pick[-1]))
        if backend_pick.startswith("parallel")
        else (backend_pick, 1)
    )

    kwargs: dict = {"app": app, "backend": backend, "workers": workers,
                    "seed": seed}

    # topology: leave the baseline alone ~60% of the time
    spec = APP_SPECS[app]
    app_params: dict = {}
    for name, values in spec.fuzz_values.items():
        if rng.random() < 0.2:
            app_params[name] = rng.choice(values)
    kwargs["app_params"] = app_params
    if app == "phold":
        kwargs["end_time"] = rng.choice(PHOLD_END_TIMES)

    for axis in AXES:
        if backend in axis.backends:
            kwargs[axis.field] = _draw(
                rng, coverage, [(v, axis.feature(v)) for v in axis.values]
            )
    if kwargs.get("aggregation", "none") != "none":
        kwargs["aggregation_window"] = rng.choice((30.0, 100.0, 400.0))
    if backend in RUN_BY["gvt_period"]:
        kwargs["gvt_period"] = rng.choice(GVT_PERIODS)
    if backend in RUN_BY["faults"] and rng.random() < 0.35:
        drop, dup, delay, reorder = (
            rng.choice(FAULT_RATE_VALUES) for _ in range(4)
        )
        if drop or dup or delay or reorder:
            rates: dict = {}
            if drop:
                rates["drop"] = drop
            if dup:
                rates["duplicate"] = dup
            if delay:
                rates["delay"] = delay
            if reorder:
                rates["reorder"] = reorder
            kwargs["faults"] = {"seed": rng.randrange(10_000), "rates": rates}
    if backend in RUN_BY["script"] and _draw(
        rng, coverage, [(True, "script:on"), (False, "script:off")]
    ):
        # biased on like any other unexplored lattice axis
        partition = Scenario(**kwargs).build_partition()
        kinds = STEP_KINDS[backend]
        steps = [
            {"at": rng.randrange(1, 6), **_draw_step(rng, kind, partition)}
            for kind in rng.choices(
                kinds, weights=[STEP_WEIGHTS[k] for k in kinds],
                k=rng.randrange(1, 4),
            )
        ]
        kwargs["script"] = {"seed": rng.randrange(10_000), "steps": steps}
    if backend in RUN_BY["lp_speed_factors"] and rng.random() < 0.25:
        n_lps = kwargs["app_params"].get(
            "n_lps", spec.base_params.get("n_lps", 2)
        )
        lp = rng.randrange(max(1, int(n_lps)))
        kwargs["lp_speed_factors"] = {str(lp): rng.choice((1.5, 2.0, 3.0))}

    scenario = Scenario(**kwargs)
    scenario.validate()
    return scenario


# --------------------------------------------------------------------- #
# the sweep
# --------------------------------------------------------------------- #
def run_fuzz(
    budget: int = 200,
    *,
    seed: int = 0,
    out_dir: str | Path = ".",
    allow_parallel: bool = True,
    shrink_budget: int = 60,
    progress=None,
) -> FuzzReport:
    """Fuzz ``budget`` scenarios; shrink + capture every divergence."""
    rng = random.Random(seed)
    coverage = CoverageMap()
    report = FuzzReport(seed=seed, budget=budget, coverage=coverage)
    for index in range(budget):
        scenario = generate_scenario(
            rng, coverage, seed, allow_parallel=allow_parallel
        )
        result = run_scenario(scenario)
        report.results.append(result)
        fresh = coverage.add(result.features)
        if fresh:
            report.novel.append((scenario, tuple(sorted(fresh))))
        if progress is not None:
            progress(index, result)
        if not result.ok:
            shrunk = shrink(
                scenario, result.failure_kind, run_scenario,
                max_runs=shrink_budget,
            )
            path = write_repro(out_dir, shrunk.scenario, result, scenario)
            report.failures.append(
                FuzzFailure(result=result, shrunk=shrunk, repro_path=str(path))
            )
    return report
