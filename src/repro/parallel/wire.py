"""Packed binary encoding of inter-shard data batches.

The queue wire pickles whole :class:`~repro.parallel.ipc.DataBatch`
objects, which rebuilds every ``Event``/``PhysicalMessage`` through the
generic pickle machinery on both sides of every hop.  This module
replaces that with a versioned ``struct``-packed frame: the message
table and the fixed numeric fields of *every* event in the frame travel
as struct-of-arrays columns (one contiguous ``u32``/``u64``/``f64`` run
per field), packed and unpacked by one cached ``struct.Struct`` call per
frame, and the frame's payloads travel as one pickled *column*: a single
``pickle.HIGHEST_PROTOCOL`` blob of the n-tuple of payloads.  Each
message also carries its modelled size, so the receiver builds its
``PhysicalMessage`` without sizing the payloads again.

Frames come only from sibling shards forked from the same process,
which the queue wire (whole pickled batches) already trusts; the checks
below guard against damage, not against a hostile peer.

Frames are self-describing and versioned: a decoder refuses a frame
whose magic or version it does not know (``WireFormatError``), which is
the upgrade rule — bump :data:`WIRE_VERSION` on any layout change, never
reinterpret silently.  Any other frame it cannot read — lengths past the
end, counts that disagree, a payload column that does not unpickle to an
n-tuple, bytes after the column — is a ``WireFormatError`` too, and
nothing else.  An encoder that cannot represent a batch at all (a
non-DATA message, a control payload, an id outside the fixed-width
fields, an unpicklable payload) raises :class:`WireEncodeError`; the
worker then falls back to the pickled queue path for that batch, so the
ring only ever carries frames this module fully owns.

Round-trip contract (tests/parallel/test_wire.py): for every encodable
batch, ``decode_batch(encode_batch(...))`` reproduces the source shard,
every message's colour and size, and every event field *exactly* —
floats are carried as IEEE-754 doubles and payloads by pickle, i.e.
bit-identically — so committed results are byte-identical to a
queue-wire run.  Receiver-side ``PhysicalMessage.serial`` is
process-local bookkeeping and is minted fresh on decode (nothing on the
receive path reads it).

Frame layout (all little-endian; k messages carrying n events)::

    offset      field
    0           u16   magic 0x5257 ("RW")
    2           u8    version (currently 3)
    3           u8    frame kind (1 = data batch)
    4           u32   src_shard
    8           u32   k = n_messages
    12          u32   n = n_events (sum of the message counts)
    16          message table: k * (u32 colour | u32 src_lp |
                                    u32 dst_lp | u32 n_events |
                                    u32 size)
    16 + 20k    senders    n*u32   (struct-of-arrays columns over all
                receivers  n*u32    n events, in message order)
                serials    n*u64
                signs      n*i8
                send_times n*f64
                recv_times n*f64
    16 + 20k    payloads   one pickle of the n-tuple of payloads,
      + 33n                to the end of the frame

The column order and widths are this module's own field table,
:data:`SOA_LAYOUT`.  A frame is exactly as long as its contents: the
decoder unpickles the column from a file object, so it knows how many
bytes the pickle took, and refuses any left over.
"""

from __future__ import annotations

import io
import pickle
import struct
from functools import lru_cache
from operator import attrgetter

from ..comm.message import MessageKind, PhysicalMessage
from ..kernel.event import Event
from .ipc import DataBatch

#: bump on ANY layout change; decoders reject unknown versions
WIRE_VERSION = 3
_MAGIC = 0x5257  # "RW"
_FRAME_DATA_BATCH = 1

#: the frame's event columns, in frame order: ``(Event attribute,
#: struct format, byte width)`` per scalar field
SOA_LAYOUT = (
    ("sender", "I", 4),
    ("receiver", "I", 4),
    ("serial", "Q", 8),
    ("sign", "b", 1),
    ("send_time", "d", 8),
    ("recv_time", "d", 8),
)

_HEADER = struct.Struct("<HBBIII")
#: the header read in two steps, so a frame of another version is
#: refused by number before the rest of its header is interpreted
_PREAMBLE = struct.Struct("<HBB")
_COUNTS = struct.Struct("<III")
#: one event's column fields in SOA_LAYOUT order, then its payload
_row = attrgetter(*(attr for attr, _fmt, _width in SOA_LAYOUT), "payload")
#: what ``zip(*map(_row, events))`` would give for no events
_NO_ROWS = ((),) * (len(SOA_LAYOUT) + 1)
#: values the header unpacks to
_HEADER_VALUES = 6
#: u32 entries, and bytes, one message takes in the message table
_MESSAGE_FIELDS = 5
_MESSAGE_BYTES = 4 * _MESSAGE_FIELDS
#: bytes one event takes across the six columns
_ROW_BYTES = sum(width for _attr, _fmt, width in SOA_LAYOUT)


class WireFormatError(ValueError):
    """A frame this decoder does not speak (magic/version/kind) or cannot
    read (lengths past its end, counts that disagree, a damaged payload
    column, trailing bytes).  Frames arrive from another process, so these
    checks stay on in production."""


class WireEncodeError(ValueError):
    """This batch cannot be represented in the packed format; the caller
    must fall back to the pickled queue wire."""


@lru_cache(maxsize=256)
def _fixed(n_messages: int, n_events: int) -> struct.Struct:
    """The header, message table and six event columns of one frame."""
    return struct.Struct(
        _HEADER.format
        + f"{_MESSAGE_FIELDS * n_messages}I"
        + "".join(f"{n_events}{fmt}" for _attr, fmt, _width in SOA_LAYOUT)
    )


def encode_batch(src_shard: int, messages: tuple[PhysicalMessage, ...]) -> bytes:
    """Pack one outbox drain into a single binary frame.

    Raises :class:`WireEncodeError` when any message falls outside the
    packed format's fixed-width fields or a payload does not pickle (the
    caller falls back to the pickled queue wire for the whole batch).
    """
    table: list[int] = []
    events: list[Event] = []
    for message in messages:
        if message.kind is not MessageKind.DATA or message.control is not None:
            raise WireEncodeError(
                f"only plain DATA messages ride the ring, got {message.kind}"
            )
        table += (message.colour, message.src_lp, message.dst_lp,
                  len(message.events), message._size)
        events += message.events
    senders, receivers, serials, signs, send_times, recv_times, payloads = (
        tuple(zip(*map(_row, events))) or _NO_ROWS
    )
    try:
        fixed = _fixed(len(messages), len(events)).pack(
            _MAGIC, WIRE_VERSION, _FRAME_DATA_BATCH, src_shard,
            len(messages), len(events), *table,
            *senders, *receivers, *serials, *signs, *send_times, *recv_times,
        )
    except struct.error as exc:
        raise WireEncodeError(str(exc)) from exc
    try:
        column = pickle.dumps(payloads, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable payload: not our problem
        raise WireEncodeError(f"unencodable payload: {exc}") from exc
    return fixed + column


def decode_batch(frame) -> DataBatch:
    """Inverse of :func:`encode_batch` (accepts bytes or a memoryview)."""
    size = len(frame)
    try:
        magic, version, kind = _PREAMBLE.unpack_from(frame, 0)
        if magic != _MAGIC:
            raise WireFormatError(f"bad frame magic 0x{magic:04x}")
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"wire version {version} not supported (speaking {WIRE_VERSION})"
            )
        if kind != _FRAME_DATA_BATCH:
            raise WireFormatError(f"unknown frame kind {kind}")
        src_shard, k, n = _COUNTS.unpack_from(frame, _PREAMBLE.size)
    except struct.error as exc:  # a header cut off by the end
        raise WireFormatError(f"truncated {size}-byte frame: {exc}") from exc
    start = _HEADER.size + k * _MESSAGE_BYTES + n * _ROW_BYTES
    if start > size:
        raise WireFormatError(
            f"{k} messages of {n} events need {start} bytes, the frame has {size}"
        )
    values = _fixed(k, n).unpack_from(frame, 0)
    c = _HEADER_VALUES + _MESSAGE_FIELDS * k  # values before the columns
    table = values[_HEADER_VALUES:c]
    counts = table[3::_MESSAGE_FIELDS]
    if sum(counts) != n:
        raise WireFormatError(
            f"message counts sum to {sum(counts)}, header says {n} events"
        )
    column = io.BytesIO(frame)
    column.seek(start)
    try:
        payloads = pickle.Unpickler(column).load()
    except Exception as exc:  # damaged pickles fail in many types
        raise WireFormatError(
            f"corrupt payload column at offset {start}: {exc!r}"
        ) from exc
    if type(payloads) is not tuple or len(payloads) != n:
        raise WireFormatError(
            f"payload column at offset {start} is not a {n}-tuple"
        )
    end = column.tell()
    if end != size:
        raise WireFormatError(f"{size - end} trailing bytes after offset {end}")
    # Event's argument order; each column sits where SOA_LAYOUT puts it
    events = tuple(map(
        Event,
        values[c:c + n],                  # senders
        values[c + n:c + 2 * n],          # receivers
        values[c + 4 * n:c + 5 * n],      # send times
        values[c + 5 * n:],               # receive times
        payloads,
        values[c + 2 * n:c + 3 * n],      # serials
        values[c + 3 * n:c + 4 * n],      # signs
    ))
    messages: list[PhysicalMessage] = []
    first = 0
    for i in range(0, len(table), _MESSAGE_FIELDS):
        colour, src_lp, dst_lp, count, message_size = table[i:i + _MESSAGE_FIELDS]
        messages.append(PhysicalMessage(
            src_lp=src_lp,
            dst_lp=dst_lp,
            kind=MessageKind.DATA,
            events=events[first:first + count],
            colour=colour,
            size=message_size,
        ))
        first += count
    return DataBatch(src_shard, tuple(messages))
