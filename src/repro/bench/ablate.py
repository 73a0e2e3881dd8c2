"""``repro-bench ablate``: static-best sweep vs on-line control, per knob.

The paper's headline claim — on-line configuration beats any static
choice — is demonstrated for three knobs (Sections 4-6).  This benchmark
generalizes the experiment to the whole registry (docs/control.md): for
every knob it sweeps the declared static settings, runs the same
workload with that knob under on-line control (the in-kernel dynamic
policy, or the MetaController for the meta-managed global knobs), and
compares committed-events-per-modelled-second against the *best* static
cell.  The dynamic run passes when it is at least as good as the best
static within a noise tolerance — the paper's claim, restated as an
executable check.

Everything measured here is modelled time, so a sweep is deterministic
for a given scale/replicates and the pass/fail verdict is CI-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..control.registry import KNOBS, dynamic_config_kwargs, get_knob
from .ablations import PHOLD_SKEWED, phold_builder
from .figures import LC, smmp_builder
from .harness import SMMP_PROFILE, ExperimentProfile, RunResult, run_cell, scaled

SCHEMA_ABLATE = "repro-ablate-1"

#: dynamic-vs-best-static tolerance on committed events/s ("within noise")
DEFAULT_TOLERANCE = 0.05


@dataclass(frozen=True)
class AblateApp:
    """One workload the per-knob sweeps run on."""

    name: str
    profile: ExperimentProfile
    #: scale -> partition builder
    make_build: Callable[[float], Callable]
    #: scale -> extra config kwargs (e.g. a virtual-time horizon)
    make_kwargs: Callable[[float], dict]


ABLATE_APPS: dict[str, AblateApp] = {
    "phold": AblateApp(
        name="phold",
        # the skewed NOW of ablation A5: enough LVT skew that every
        # controller has rollbacks to feed on
        profile=PHOLD_SKEWED,
        make_build=lambda scale: phold_builder(),
        make_kwargs=lambda scale: {"end_time": 6_000.0 * scale / 0.1},
    ),
    "smmp": AblateApp(
        name="smmp",
        profile=SMMP_PROFILE,
        make_build=lambda scale: smmp_builder(scaled(1000, scale)),
        make_kwargs=lambda scale: {},
    ),
}

#: per-knob base configuration shared by every cell of that knob's sweep
#: (A1 precedent: the checkpoint U-curve needs lazy cancellation so
#: coast-forward cost actually varies with chi)
KNOB_BASE_KWARGS: dict[str, dict[str, Any]] = {
    "checkpoint": {"cancellation": LC},
}

#: knob -> apps its sweep runs on; time_window widths are virtual-time
#: quantities sized for PHOLD (A5), so that sweep stays PHOLD-only
KNOB_APPS: dict[str, tuple[str, ...]] = {
    name: (("phold",) if name == "time_window" else ("phold", "smmp"))
    for name in KNOBS
}


# --------------------------------------------------------------------- #
@dataclass
class KnobAblation:
    """One knob x one app: the static sweep and the dynamic run."""

    knob: str
    app: str
    statics: list[RunResult]
    dynamic: RunResult
    tolerance: float

    @property
    def best_static(self) -> RunResult:
        return max(self.statics, key=lambda r: r.committed_per_second)

    @property
    def ok(self) -> bool:
        floor = self.best_static.committed_per_second * (1.0 - self.tolerance)
        return self.dynamic.committed_per_second >= floor

    def render(self) -> str:
        title = f"{self.knob} x {self.app}"
        header = (
            f"{'setting':<16} {'exec time (s)':>14} {'events/s':>12} "
            f"{'rollbacks':>10}"
        )
        lines = [title, "=" * len(title), header, "-" * len(header)]
        for result in [*self.statics, self.dynamic]:
            lines.append(
                f"{result.label:<16} {result.execution_time_s:>14.3f} "
                f"{result.committed_per_second:>12.0f} "
                f"{result.rollbacks:>10.1f}"
            )
        best = self.best_static
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: dynamic {self.dynamic.committed_per_second:.0f} ev/s "
            f"vs best static {best.committed_per_second:.0f} ev/s "
            f"({best.label}), tolerance {self.tolerance:.0%}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        def cell(result: RunResult) -> dict:
            return {
                "label": result.label,
                "execution_time_us": result.execution_time_us,
                "committed_events": result.committed_events,
                "committed_per_second": result.committed_per_second,
                "rollbacks": result.rollbacks,
            }

        return {
            "knob": self.knob,
            "app": self.app,
            "statics": [cell(r) for r in self.statics],
            "dynamic": cell(self.dynamic),
            "best_static": self.best_static.label,
            "ok": self.ok,
        }


def ablate_knob(
    knob: str,
    app: str,
    *,
    scale: float = 0.05,
    replicates: int = 3,
    tolerance: float = DEFAULT_TOLERANCE,
) -> KnobAblation:
    """Sweep one knob's static settings vs its dynamic policy on one app."""
    spec = get_knob(knob)
    workload = ABLATE_APPS[app]
    build = workload.make_build(scale)
    base = dict(KNOB_BASE_KWARGS.get(knob, {}))
    base.update(workload.make_kwargs(scale))

    statics = []
    for index, (label, value) in enumerate(spec.static_values):
        kwargs = dict(base)
        config_value = spec.static_config_value(value)
        if config_value is not None:
            kwargs[spec.config_field] = config_value
        statics.append(
            run_cell(label, index, build, workload.profile,
                     replicates=replicates, **kwargs)
        )
    kwargs = dict(base)
    kwargs.update(dynamic_config_kwargs((knob,)))
    dynamic = run_cell("dynamic", len(statics), build, workload.profile,
                       replicates=replicates, **kwargs)
    return KnobAblation(
        knob=knob, app=app, statics=statics, dynamic=dynamic,
        tolerance=tolerance,
    )


def run_ablate(
    knobs: tuple[str, ...] | None = None,
    apps: tuple[str, ...] | None = None,
    *,
    scale: float = 0.05,
    replicates: int = 3,
    tolerance: float = DEFAULT_TOLERANCE,
    progress: Callable[[str], None] | None = None,
) -> list[KnobAblation]:
    """The full sweep: every requested knob on every requested app."""
    names = tuple(KNOBS) if knobs is None else knobs
    results = []
    for knob in names:
        get_knob(knob)  # raises on an unknown name
        targets = KNOB_APPS[knob] if apps is None else tuple(
            a for a in apps if a in KNOB_APPS[knob]
        )
        for app in targets:
            if progress is not None:
                progress(f"{knob} x {app}")
            results.append(
                ablate_knob(knob, app, scale=scale, replicates=replicates,
                            tolerance=tolerance)
            )
    return results


def render_ablate(results: list[KnobAblation]) -> str:
    parts = [result.render() for result in results]
    passed = sum(1 for r in results if r.ok)
    parts.append(
        f"dynamic >= best-static (within tolerance) on "
        f"{passed}/{len(results)} knob x app sweeps"
    )
    return "\n\n".join(parts)


def write_ablate_document(
    results: list[KnobAblation],
    path: str | Path,
    *,
    scale: float,
    replicates: int,
) -> Path:
    doc = {
        "schema": SCHEMA_ABLATE,
        "scale": scale,
        "replicates": replicates,
        "results": [r.to_dict() for r in results],
        "ok": all(r.ok for r in results),
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
