"""The unified control plane: knob registry + meta-controller.

The paper demonstrates on-line configuration with three hand-built
controllers; this package generalizes the recipe (docs/control.md).
Every tunable is declared once as a :class:`KnobSpec` — value domain,
sampled output ``O``, transfer model ``T``, period ``P``, safety
constraint — and generic machinery consumes the declarations: the
:class:`MetaController` drives the global knobs at GVT rounds,
``repro-bench ablate`` sweeps static-best vs dynamic per knob, and
``repro-control docs`` renders the reference table in docs/control.md.
"""

from .meta import (
    META_KNOBS,
    GvtPeriodController,
    MetaController,
    PlacementController,
)
from .registry import (
    KNOBS,
    dynamic_config_kwargs,
    get_knob,
    render_knob_table,
    static_config_kwargs,
)
from .spec import KnobSpec

__all__ = [
    "KNOBS",
    "META_KNOBS",
    "GvtPeriodController",
    "KnobSpec",
    "MetaController",
    "PlacementController",
    "dynamic_config_kwargs",
    "get_knob",
    "render_knob_table",
    "static_config_kwargs",
]
