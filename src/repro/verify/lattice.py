"""Deterministic enumeration of the configuration lattice.

The full cross product of :data:`repro.verify.scenario.AXES` (6
cancellation variants x 8 checkpoint settings x 3 aggregation policies x
2 GVT algorithms x 2 optimism windows x meta-control off/on on the
modelled backend, the first three again on the parallel one) is ~1300
points per app — too many for a gate.
``sweep_scenarios`` instead walks the paper-shaped slices that
matter: every value of every axis, one axis at a time, from a default
pivot per app, plus every backend variant of the pivot.  The fuzzer
(:mod:`repro.verify.fuzzer`) explores the interior of the lattice; the
sweep guarantees the axes themselves are always covered.
"""

from __future__ import annotations

from typing import Iterator

from .runner import fork_available
from .scenario import AXES as _AXES
from .scenario import Scenario

#: one-axis sweeps: scenario field -> values
AXES: dict[str, tuple] = {axis.field: axis.values for axis in _AXES}

DEFAULT_APPS = ("phold", "smmp", "raid")


def sweep_scenarios(
    apps: tuple[str, ...] = DEFAULT_APPS,
    axes: tuple[str, ...] | None = None,
    *,
    include_backends: bool = True,
) -> Iterator[Scenario]:
    """Yield the axis sweep, deduplicated, in a deterministic order."""
    chosen = axes or tuple(AXES)
    unknown = set(chosen) - set(AXES)
    if unknown:
        raise ValueError(f"unknown sweep axis/axes: {sorted(unknown)}")
    seen: set[str] = set()

    def emit(scenario: Scenario) -> Iterator[Scenario]:
        key = scenario.scenario_id()
        if key not in seen:
            seen.add(key)
            yield scenario

    for app in apps:
        pivot = Scenario(app=app)
        yield from emit(pivot)
        for axis in chosen:
            for value in AXES[axis]:
                yield from emit(pivot.with_(**{axis: value}))
        if include_backends:
            yield from emit(pivot.with_(backend="conservative"))
            if fork_available():
                for workers in (1, 2):
                    yield from emit(
                        pivot.with_(backend="parallel", workers=workers)
                    )
