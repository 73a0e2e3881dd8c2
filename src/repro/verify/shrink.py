"""Greedy scenario shrinking: minimize a failing spec, keep the failure.

Classic delta-debugging over the scenario's own fields, in decreasing
order of how much complexity each strips: drop the fault plan, collapse
the backend to in-process modelled, reset exotic knobs, homogenize the
platform, then pull every topology parameter toward its floor and halve
the horizon.  A candidate is adopted only if re-running it reproduces
the *same* failure kind (``digest`` / ``trace`` / ``violation:x`` /
``error:Type``), so a shrink can never wander onto a different bug.

The shrinker is budgeted: at most ``max_runs`` re-executions, each of
which is a full deterministic scenario run, so a pathological failure
still shrinks in bounded time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .scenario import AXES, Scenario


@dataclass
class ShrinkResult:
    """The minimized scenario plus shrink provenance."""

    scenario: Scenario
    failure_kind: str
    runs: int
    steps: int  # adopted simplifications


def _knob_resets(s: Scenario) -> Iterator[Scenario]:
    if s.faults is not None:
        yield s.with_(faults=None)
    if s.script is not None:
        yield s.with_(script=None)
        steps = s.script.get("steps", [])
        if len(steps) > 1:
            yield s.with_(script={**s.script, "steps": steps[:1]})
    if s.backend != "modelled":
        yield s.with_(backend="modelled", workers=1, script=None)
    if s.backend == "parallel" and s.workers > 1:
        yield s.with_(workers=1)
    defaults = Scenario()
    for name in ("gvt_period", *(axis.field for axis in reversed(AXES))):
        if getattr(s, name) != getattr(defaults, name):
            yield s.with_(**{name: getattr(defaults, name)})
    if s.lp_speed_factors:
        yield s.with_(lp_speed_factors={})


def _topology_shrinks(s: Scenario) -> Iterator[Scenario]:
    spec = s.spec
    merged = s.merged_params()
    for name, values in spec.fuzz_values.items():
        floor = values[0]
        current = merged[name]
        if current == floor:
            continue
        yield s.with_(app_params={**s.app_params, name: floor})
        if isinstance(current, int) and isinstance(floor, int):
            mid = (current + floor) // 2
            if floor < mid < current:
                yield s.with_(app_params={**s.app_params, name: mid})
    end_time = s.effective_end_time()
    if end_time != float("inf"):
        for candidate in (60.0, end_time / 2.0):
            if candidate < end_time:
                yield s.with_(end_time=candidate)


def _candidates(s: Scenario) -> Iterator[Scenario]:
    yield from _knob_resets(s)
    yield from _topology_shrinks(s)


def shrink(
    scenario: Scenario,
    failure_kind: str,
    run: Callable[[Scenario], "object"],
    *,
    max_runs: int = 60,
) -> ShrinkResult:
    """Greedily minimize ``scenario`` while ``run`` keeps failing the same.

    ``run`` is any callable returning an object with a ``failure_kind``
    attribute (normally :func:`repro.verify.runner.run_scenario`).
    """
    current = scenario
    runs = steps = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for candidate in _candidates(current):
            if runs >= max_runs:
                break
            try:
                candidate.validate()
            except Exception:
                continue  # e.g. conservative backend with exotic knobs
            runs += 1
            try:
                result = run(candidate)
            except Exception:
                continue  # harness crash on the candidate: not a shrink
            if result.failure_kind == failure_kind:
                current = candidate
                steps += 1
                progress = True
                break  # restart the pass from the simpler scenario
    return ShrinkResult(
        scenario=current, failure_kind=failure_kind, runs=runs, steps=steps
    )
