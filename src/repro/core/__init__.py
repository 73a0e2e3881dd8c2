"""The paper's contribution: on-line configuration by feedback control.

This package holds the three ``<O, I, S, T, P>`` control systems of the
paper (Section 3): dynamic check-pointing (Section 4), dynamic
cancellation (Section 5) and dynamic message aggregation (Section 6).
Each knob's tuple is declared once, as a
:class:`~repro.control.spec.KnobSpec`; each invocation is recorded once,
as a ``ctrl.*`` trace record (docs/observability.md).  A controller only
sets ``last_verdict``; the kernel writes the record.
"""

from .aggregation_controller import SAAWPolicy
from .cancellation_controller import (
    DynamicCancellation,
    PermanentAggressive,
    PermanentSet,
    single_threshold,
)
from .checkpoint_controller import DynamicCheckpoint, HillClimbCheckpoint
from .filters import SampleWindow
from .thresholding import DeadZoneThreshold
from .window_controller import (
    AdaptiveTimeWindow,
    StaticTimeWindow,
    TimeWindowPolicy,
    WindowObservation,
)

__all__ = [
    "DeadZoneThreshold",
    "DynamicCancellation",
    "DynamicCheckpoint",
    "HillClimbCheckpoint",
    "PermanentAggressive",
    "PermanentSet",
    "SAAWPolicy",
    "SampleWindow",
    "single_threshold",
    "AdaptiveTimeWindow",
    "StaticTimeWindow",
    "TimeWindowPolicy",
    "WindowObservation",
]
