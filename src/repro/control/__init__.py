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

from .._lazy import lazy_exports

_EXPORTS = {
    ".meta": (
        "META_KNOBS",
        "GvtPeriodController",
        "MetaController",
        "PlacementController",
    ),
    ".registry": (
        "KNOBS",
        "dynamic_config_kwargs",
        "get_knob",
        "render_knob_table",
        "static_config_kwargs",
    ),
    ".spec": ("KnobSpec",),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
