"""Instrumentation: per-object, per-LP and whole-run counters and reports.

A run's trajectory over time is not kept here: it is folded from the
trace (``repro.trace.summarize(...).rounds``, docs/observability.md)."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".counters": ("LPStats", "ObjectStats", "RunStats"),
    ".report": ("class_report", "full_report", "lp_report", "per_class_breakdown"),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
