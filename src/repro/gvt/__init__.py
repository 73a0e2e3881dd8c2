"""Global Virtual Time estimation and fossil collection."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".manager": ("GVTAlgorithm", "OmniscientGVT", "true_global_minimum"),
    ".mattern": ("MatternGVT",),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
