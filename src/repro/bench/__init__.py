"""Benchmark harness: regenerate every table and figure of the paper.

Use the CLI (``repro-bench figures --fig 5``) or call the functions in
:mod:`repro.bench.figures` directly; pytest entry points live in the
repository's ``benchmarks/`` directory.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".harness": (
        "RAID_PROFILE",
        "SMMP_PROFILE",
        "ExperimentProfile",
        "RunResult",
        "run_cell",
        "scaled",
    ),
    ".figures": (
        "FIGURES",
        "baseline_rates",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
    ),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
