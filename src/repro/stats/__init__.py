"""Instrumentation: per-object, per-LP and whole-run counters and reports.

A run's trajectory over time is not kept here: it is folded from the
trace (``repro.trace.summarize(...).rounds``, docs/observability.md)."""

from .counters import LPStats, ObjectStats, RunStats
from .report import class_report, full_report, lp_report, per_class_breakdown

__all__ = [
    "LPStats",
    "ObjectStats",
    "RunStats",
    "class_report",
    "full_report",
    "lp_report",
    "per_class_breakdown",
]
