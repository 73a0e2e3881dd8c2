"""Runtime invariant oracle for the Time Warp kernel (off by default).

See :mod:`repro.oracle.invariants` for the invariants checked and
``docs/robustness.md`` for the workflow.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".invariants": (
        "NULL_ORACLE",
        "InvariantOracle",
        "InvariantViolation",
        "NullOracle",
        "state_digest",
    ),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
