"""Control-plane records of the process-sharded backend.

Everything that crosses a process boundary is one of the picklable
records below or one of Mattern's three in :mod:`repro.gvt.mattern`,
travelling over ``multiprocessing`` queues.  On the
``shm`` wire the bulk data path — :class:`DataBatch` — instead
travels as packed binary frames through shared-memory rings
(:mod:`repro.parallel.wire` / :mod:`repro.parallel.shm`) and the queues
carry only control records and the occasional oversized batch that
escapes back to pickle; on the ``queue`` wire every record travels the
queues.  Wake-ups are not records: an idle shard's doorbell and the
coordinator's "fleet ran dry" hint are single bytes on the pipes of
:class:`repro.parallel.shm.WakeBoard`:

* shard -> shard: :class:`DataBatch` — every application
  :class:`~repro.comm.message.PhysicalMessage` the sender accumulated
  since its last queue write, each carrying its Mattern colour.
* coordinator -> shard: Mattern's :class:`~repro.gvt.mattern.GvtStart`
  (open one pass of a GVT round) and :class:`~repro.gvt.mattern.GvtCommit`
  (a new safe bound: fossil-collect), and :class:`Stop` (global
  quiescence proven: finalize and report).
* shard -> coordinator: :class:`~repro.gvt.mattern.ShardReport` (one
  pass's cut snapshot) and :class:`ShardDone` / :class:`ShardError`
  (terminal payloads).
* both ways, in an elastic epoch: the records at the end of this
  module.  Its drain asks no question of its own: it is GVT rounds on
  the paused fleet that commit nothing.

Batching happens at two levels — DyMA aggregation packs events into
physical messages (``comm/aggregation.py``), flushed once per look at
the data wire so that the slice is the aggregation window, and the
outbox packs physical messages into one ``DataBatch`` per destination
per look — so a chatty model costs ring or queue operations
proportional to slices, not to events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..comm.message import PhysicalMessage


@dataclass(frozen=True, slots=True)
class DataBatch:
    """All inter-shard messages one sender accumulated for one receiver."""

    src_shard: int
    messages: tuple[PhysicalMessage, ...]


@dataclass(frozen=True, slots=True)
class Stop:
    """Coordinator proved global quiescence: finalize and report.

    Carries the global wire totals so every worker can run the oracle's
    wire-conservation / message-loss end-of-run checks against numbers
    that actually mean something (a single shard's sent/received counts
    are never expected to balance on their own).
    """

    final_gvt: float
    total_sent: int
    total_received: int


@dataclass(frozen=True, slots=True)
class ShardDone:
    """Terminal payload: everything the parent merges into RunStats."""

    shard: int
    #: serialized per-shard results; see worker._final_payload for keys
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ShardError:
    """A worker died; the traceback travels home for the RuntimeError."""

    shard: int
    error: str


# --------------------------------------------------------------------- #
# elastic reconfiguration (docs/parallel.md, "Elastic worker pool")
# --------------------------------------------------------------------- #
# One elastic *epoch* runs strictly between committing GVT rounds:
#   PauseEpoch -> GvtStart/ShardReport rounds until one in which no
#   shard sent (wire proven empty) -> Reconfigure ->
#   MigrateBatch/MigrateDone -> Retire/ShardDone -> Resume
# Migration traffic bypasses the coloured data wire on purpose:
# the wire is provably empty while it flows, so it must not perturb the
# Mattern accounting.


@dataclass(frozen=True, slots=True)
class PauseEpoch:
    """Coordinator opens elastic epoch ``epoch``: stop forward execution,
    keep draining the inbox (deliveries may still roll back and emit
    anti-messages) and flush what that sends."""

    epoch: int


@dataclass(frozen=True, slots=True)
class Reconfigure:
    """The epoch's placement delta, broadcast to every active worker
    (joiners included).  Each worker applies ``moves`` to its local
    routing map in place, ships checkpoints for the objects it loses,
    and counts the objects it gains."""

    epoch: int
    #: ((oid, src_shard, dst_shard), ...)
    moves: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class MigrateBatch:
    """Canonical object checkpoints travelling src -> dst, outside the
    coloured data wire (the wire is drained while these flow)."""

    src_shard: int
    epoch: int
    #: serialized ObjectCheckpoint blobs (see repro.kernel.migration)
    checkpoints: tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class MigrateDone:
    """A worker shipped all outgoing and restored all expected incoming
    checkpoints for ``epoch``."""

    shard: int
    epoch: int


@dataclass(frozen=True, slots=True)
class Resume:
    """Coordinator closes the epoch: surviving workers resume forward
    execution."""

    epoch: int


@dataclass(frozen=True, slots=True)
class Retire:
    """Coordinator tells an emptied leaver to finalize and exit; it
    answers with its :class:`ShardDone`, whose lifetime wire totals the
    coordinator folds into its retired-correction terms."""

    epoch: int

