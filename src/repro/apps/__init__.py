"""Bundled simulation models: SMMP, RAID, PHOLD and test workloads."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".base": ("chance", "pick", "round_robin_partition", "token_hash", "uniform"),
    ".logic": (
        "AdderParams",
        "Gate",
        "Probe",
        "VectorSource",
        "adder_vectors",
        "build_ripple_adder",
        "build_xor_chain",
        "read_adder_outputs",
    ),
    ".phold": ("PHOLDObject", "PHOLDParams", "build_phold"),
    ".pingpong": ("Player", "build_pingpong"),
    ".raid": ("RAIDParams", "build_raid"),
    ".smmp": ("SMMPParams", "build_smmp"),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
