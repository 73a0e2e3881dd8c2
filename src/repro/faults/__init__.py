"""Deterministic network fault injection (docs/robustness.md).

A seeded :class:`FaultPlan` describes drop/duplicate/delay/reorder
behaviour; configuring one (``SimulationConfig(faults=plan)``) swaps the
perfect wire for a :class:`FaultyNetwork` with a reliable transport on
top.  :mod:`repro.faults.fuzz` sweeps plans differentially against the
sequential kernel (``repro-bench faults``).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".network": ("FaultCounters", "FaultyNetwork"),
    ".plan": ("CLEAN", "FaultDecision", "FaultPlan", "FaultRates"),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
