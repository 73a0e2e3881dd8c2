"""Process-sharded parallel execution backend (docs/parallel.md).

Shards the LPs of a partitioned model across OS worker processes, runs
the proven single-process Time Warp loop inside each shard, batches
inter-shard events over ``multiprocessing`` queues behind the DyMA
aggregation buffers, and drives Mattern-colour GVT from a coordinator in
the parent process.  Select it with
``SimulationConfig(backend="parallel", workers=N)`` through
:func:`repro.make_simulation`, or construct
:class:`ParallelSimulation` directly.
"""

from ..gvt.mattern import GvtCommit, GvtStart, RoundResult, ShardReport
from .backend import ParallelSimulation, resolve_strategy
from .gvt import GvtCoordinator, WorkerFailedError
from .ipc import DataBatch, ShardDone, ShardError, Stop
from .worker import ShardPlan, worker_main

__all__ = [
    "DataBatch",
    "GvtCommit",
    "GvtCoordinator",
    "GvtStart",
    "ParallelSimulation",
    "RoundResult",
    "ShardDone",
    "ShardError",
    "ShardPlan",
    "ShardReport",
    "Stop",
    "WorkerFailedError",
    "resolve_strategy",
    "worker_main",
]
