"""The paper's contribution: on-line configuration by feedback control.

This package holds the three ``<O, I, S, T, P>`` control systems of the
paper (Section 3): dynamic check-pointing (Section 4), dynamic
cancellation (Section 5) and dynamic message aggregation (Section 6).
Each knob's tuple is declared once, as a
:class:`~repro.control.spec.KnobSpec`; each invocation is recorded once,
as a ``ctrl.*`` trace record (docs/observability.md).  A controller only
sets ``last_verdict``; the kernel writes the record.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".aggregation_controller": ("SAAWPolicy",),
    ".cancellation_controller": (
        "DynamicCancellation",
        "PermanentAggressive",
        "PermanentSet",
        "single_threshold",
    ),
    ".checkpoint_controller": ("DynamicCheckpoint", "HillClimbCheckpoint"),
    ".filters": ("SampleWindow",),
    ".thresholding": ("DeadZoneThreshold",),
    ".window_controller": (
        "AdaptiveTimeWindow",
        "StaticTimeWindow",
        "TimeWindowPolicy",
        "WindowObservation",
    ),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
