"""Checkpoint-based migration of simulation objects between LPs.

An :class:`ObjectCheckpoint` is a *canonical*, self-contained serial form
of one simulation object's entire Time Warp context: application object
and state, the three WARPED history queues, parked lazy-cancellation
comparisons, pending anti-messages, and every other field of its
:class:`~repro.kernel.lp.ObjectContext` as it stands (LVT, send serial,
cancellation mode and policy, checkpoint interval chi, policy and window,
the key of an unsaved at-once streak, the object's counters).  The
context's own field list is the list of what travels: :data:`CARRIED` is
every field not named in :data:`NOT_CARRIED`, so a field added to
``ObjectContext`` migrates with no edit here.  "Canonical" means two
checkpoints of equivalent contexts pickle to the same bytes:

* events are flattened to plain field tuples, so the checkpoint format
  does not depend on how :class:`Event` chooses to pickle itself;
* unordered collections are serialized in a deterministic order (the
  object's events in its host's pending heap by key, pending
  anti-messages by event id, comparisons by park sequence) and rebuilt
  on restore;
* the application object is embedded as a pickle blob taken with its
  kernel services unbound, so a checkpoint never drags an LP (and with
  it the whole process) into the pickle graph.

The three free functions are the whole protocol: ``checkpoint_object``
captures, ``detach_object`` captures *and* removes the object from its
LP, ``restore_object`` rebuilds the context inside another LP (in the
same or a different OS process).  The caller is responsible for
quiescence: the object must not be mid-execution, and any in-flight
messages addressed to it must be drained or forwarded
(:attr:`~repro.kernel.lp.LogicalProcess.forward`) around the move.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from typing import Any

from .errors import SchedulingError
from .event import Event, EventKey, SentRecord, VirtualTime
from .lp import LogicalProcess, ObjectContext
from .state import SavedState

#: pinned pickle protocol so checkpoint bytes are stable across runs
PICKLE_PROTOCOL = 4

#: the :class:`ObjectContext` fields a checkpoint does not carry as they
#: stand: the object and its id (fields of their own), the four history
#: structures (flattened canonically below), the per-host execution
#: price (``LogicalProcess.adopt`` re-prices it) and the two fields that
#: only mean something mid-event (a checkpointed object is quiescent)
NOT_CARRIED = frozenset({
    "obj", "oid", "iq", "oq", "sq", "cmp_buffer", "exec_cost",
    "coasting", "current_cause_key",
})

#: every other field, in declaration order, copied out and back as is
CARRIED: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ObjectContext) if f.name not in NOT_CARRIED
)

#: (sender, receiver, send_time, recv_time, payload, serial, sign)
EventTuple = tuple[int, int, VirtualTime, VirtualTime, Any, int, int]


def _event_tuple(event: Event) -> EventTuple:
    return (
        event.sender, event.receiver, event.send_time, event.recv_time,
        event.payload, event.serial, event.sign,
    )


def _event_from(fields: EventTuple) -> Event:
    return Event(*fields)


@dataclass(frozen=True, slots=True)
class ObjectCheckpoint:
    """Canonical serialized form of one object's Time Warp context."""

    oid: int
    #: the application object, pickled with services unbound
    obj_blob: bytes
    #: ``(name, value)`` for each :data:`CARRIED` field (policies and
    #: counters are plain objects with deterministic pickles)
    context: tuple[tuple[str, Any], ...]

    #: live unprocessed events, sorted by :class:`EventKey`
    future: tuple[EventTuple, ...]
    #: processed events, in execution order
    processed: tuple[EventTuple, ...]
    #: anti-messages whose positives have not arrived, sorted by event id
    pending_antis: tuple[EventTuple, ...]
    #: output-queue records in send order: (event, cause_key)
    sent: tuple[tuple[EventTuple, EventKey], ...]
    #: state snapshots oldest-first: (last_key, lvt, state)
    states: tuple[tuple[EventKey | None, VirtualTime, Any], ...]
    #: unresolved comparison-buffer entries in park order:
    #: (event, cause_key, lazy)
    comparisons: tuple[tuple[EventTuple, EventKey, bool], ...]

    def to_bytes(self) -> bytes:
        """The canonical wire form (stable bytes for equal contexts)."""
        return pickle.dumps(self, protocol=PICKLE_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ObjectCheckpoint":
        ckpt = pickle.loads(blob)
        if not isinstance(ckpt, cls):
            raise SchedulingError(
                f"checkpoint blob decoded to {type(ckpt).__name__}"
            )
        return ckpt


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
def checkpoint_object(ctx: ObjectContext) -> ObjectCheckpoint:
    """Capture ``ctx`` as a canonical checkpoint (non-destructive).

    The context must be quiescent: not coasting, not mid-event.  The
    checkpoint shares the live state/policy objects with the context, so
    a caller that keeps executing the source afterwards must serialize
    (``to_bytes``) first; migration always does, crossing the process
    boundary.
    """
    if ctx.coasting:
        raise SchedulingError(
            f"cannot checkpoint {ctx.obj.name!r} during coast-forward"
        )
    obj = ctx.obj
    services = obj._services
    obj._services = None
    try:
        obj_blob = pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
    finally:
        obj._services = services

    iq = ctx.iq
    # the object's share of its host's pending queue, in key order
    future = tuple(_event_tuple(event) for event in iq.pending.of(ctx.oid))
    processed = tuple(_event_tuple(event) for event in iq.processed)
    pending_antis = tuple(
        _event_tuple(anti)
        for anti in sorted(iq._pending_antis.values(), key=Event.event_id)
    )
    sent = tuple(
        (_event_tuple(record.event), record.cause_key)
        for record in ctx.oq.records
    )
    states = tuple(
        (entry.last_key, entry.lvt, entry.state) for entry in ctx.sq.entries
    )
    unresolved = sorted(
        (entry for _, _, entry in ctx.cmp_buffer._by_key if not entry.resolved),
        key=lambda entry: entry.seq,
    )
    comparisons = tuple(
        (_event_tuple(entry.record.event), entry.record.cause_key, entry.lazy)
        for entry in unresolved
    )
    return ObjectCheckpoint(
        oid=ctx.oid,
        obj_blob=obj_blob,
        context=tuple((name, getattr(ctx, name)) for name in CARRIED),
        future=future,
        processed=processed,
        pending_antis=pending_antis,
        sent=sent,
        states=states,
        comparisons=comparisons,
    )


def detach_object(lp: LogicalProcess, oid: int) -> ObjectCheckpoint:
    """Checkpoint object ``oid`` and remove it from ``lp``.

    After this returns the LP no longer hosts the object; events routed
    to it must be re-routed (update the shared routing map first) or
    rescued through :attr:`LogicalProcess.forward`.
    """
    ctx = lp.members.get(oid)
    if ctx is None:
        raise SchedulingError(f"LP {lp.lp_id} does not host object {oid}")
    ckpt = checkpoint_object(ctx)
    lp.release(ctx)
    return ckpt


# --------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------- #
def restore_object(
    lp: LogicalProcess,
    ckpt: ObjectCheckpoint,
    *,
    src_lp: int | None = None,
    clock: float | None = None,
) -> ObjectContext:
    """Rebuild a checkpointed object inside ``lp`` and return its context.

    A driver completing a live migration names the host the object left
    (``src_lp``) and its own clock; the ``lp.migrate`` trace record is
    written here, once, for whichever scheduler moved the object.

    The caller must have updated the routing map so ``ckpt.oid`` now
    resolves to ``lp`` — otherwise the first send to the object would
    bounce.  The restored context is bit-equivalent to the captured one:
    a fresh :func:`checkpoint_object` of it yields identical bytes.
    """
    if ckpt.oid in lp.members:
        raise SchedulingError(
            f"LP {lp.lp_id} already hosts object {ckpt.oid}"
        )
    ctx = ObjectContext(pickle.loads(ckpt.obj_blob), ckpt.oid, **dict(ckpt.context))

    iq = ctx.iq
    for fields in ckpt.processed:
        iq.mark_processed(_event_from(fields))
    for fields in ckpt.pending_antis:
        anti = _event_from(fields)
        iq._pending_antis[anti._eid] = anti

    for fields, cause_key in ckpt.sent:
        ctx.oq.records.append(
            SentRecord(event=_event_from(fields), cause_key=cause_key)
        )
    # sizes are not part of the canonical form: measure each snapshot here
    for last_key, lvt, state in ckpt.states:
        ctx.sq.entries.append(SavedState(last_key, lvt, state, state.size_bytes()))
    # re-park in original order: fresh seqs, same relative expiry order
    for fields, cause_key, is_lazy in ckpt.comparisons:
        record = SentRecord(event=_event_from(fields), cause_key=cause_key)
        ctx.cmp_buffer.park(record, lazy=is_lazy)

    lp.adopt(ctx, map(_event_from, ckpt.future))
    lp._member_list.sort(key=lambda member: member.oid)
    if src_lp is not None and lp.tracer.enabled:
        lp.tracer.emit(
            "lp.migrate", clock, oid=ckpt.oid, src_lp=src_lp, dst_lp=lp.lp_id
        )
    return ctx
