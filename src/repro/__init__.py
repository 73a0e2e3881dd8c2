"""repro: reproduction of "On-line Configuration of a Time Warp Parallel
Discrete Event Simulator" (Radhakrishnan, Abu-Ghazaleh, Chetlur, Wilsey;
ICPP 1998).

A complete Time Warp parallel discrete event simulation kernel (WARPED-
style) running on a deterministic modelled network of workstations, with
the paper's three on-line configuration control systems: dynamic
check-pointing, dynamic cancellation, and dynamic message aggregation.

Quickstart::

    from repro import SimulationConfig, TimeWarpSimulation
    from repro.apps import build_smmp, SMMPParams

    partition = build_smmp(SMMPParams(requests_per_processor=200))
    stats = TimeWarpSimulation(partition, SimulationConfig()).run()
    print(stats.summary())
"""

# NOTE: the kernel package initializes first and eagerly: every run needs
# it, and it pulls in the comm/cluster/gvt modules in an order that
# resolves their cycles.  Every other export is lazy (repro/_lazy.py):
# ``import repro`` loads only the kernel and what it runs, and a name is
# imported from its submodule on first access.
from . import kernel  # noqa: F401
from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    ".kernel": (
        "Mode",
        "RecordState",
        "SimulationConfig",
        "SimulationObject",
        "StaticCancellation",
        "StaticCheckpoint",
        "TimeWarpSimulation",
        "make_simulation",
    ),
    ".cluster.costmodel": ("CostModel", "NetworkModel"),
    ".core": (
        "AdaptiveTimeWindow",
        "DynamicCancellation",
        "DynamicCheckpoint",
        "PermanentAggressive",
        "PermanentSet",
        "SAAWPolicy",
        "StaticTimeWindow",
        "single_threshold",
    ),
    ".comm.aggregation": ("FixedWindow", "NoAggregation"),
    ".conservative": ("ConservativeSimulation",),
    ".control": ("MetaController",),
    ".faults": ("FaultPlan", "FaultRates"),
    ".oracle": ("InvariantOracle", "InvariantViolation"),
    ".sequential": ("SequentialSimulation",),
    ".stats": ("RunStats",),
}
__all__, __getattr__ = lazy_exports(__name__, _EXPORTS)
