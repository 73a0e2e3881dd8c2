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

# NOTE: the kernel package must initialize first; it pulls in the
# comm/cluster/gvt packages in an order that resolves their cycles.
from .kernel import (
    Mode,
    RecordState,
    SimulationConfig,
    SimulationObject,
    StaticCancellation,
    StaticCheckpoint,
    TimeWarpSimulation,
    make_simulation,
)
from .cluster.costmodel import CostModel, NetworkModel
from .core import (
    AdaptiveTimeWindow,
    DynamicCancellation,
    DynamicCheckpoint,
    PermanentAggressive,
    PermanentSet,
    SAAWPolicy,
    StaticTimeWindow,
    single_threshold,
)
from .comm.aggregation import FixedWindow, NoAggregation
from .conservative import ConservativeSimulation
from .control import MetaController
from .faults import FaultPlan, FaultRates
from .oracle import InvariantOracle, InvariantViolation
from .sequential import SequentialSimulation
from .stats import RunStats

__version__ = "1.0.0"

__all__ = [
    "AdaptiveTimeWindow",
    "ConservativeSimulation",
    "CostModel",
    "DynamicCancellation",
    "DynamicCheckpoint",
    "FaultPlan",
    "FaultRates",
    "FixedWindow",
    "InvariantOracle",
    "InvariantViolation",
    "MetaController",
    "Mode",
    "NetworkModel",
    "NoAggregation",
    "PermanentAggressive",
    "PermanentSet",
    "RecordState",
    "RunStats",
    "SAAWPolicy",
    "SequentialSimulation",
    "SimulationConfig",
    "SimulationObject",
    "StaticCancellation",
    "StaticCheckpoint",
    "StaticTimeWindow",
    "TimeWarpSimulation",
    "make_simulation",
    "single_threshold",
]
