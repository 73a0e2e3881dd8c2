"""Packed binary encoding of inter-shard data batches.

The queue wire pickles whole :class:`~repro.parallel.ipc.DataBatch`
objects, which rebuilds every ``Event``/``PhysicalMessage`` dataclass
through the generic pickle machinery on both sides of every hop.  This
module replaces that with a versioned ``struct``-packed frame: the
message table and the fixed numeric fields of *every* event in the
frame travel as struct-of-arrays columns (one contiguous
``u32``/``u64``/``f64`` run per field), packed and unpacked by one cached
``struct.Struct`` call per frame, and payloads travel as one tag byte
plus an inline little-endian body for the common immutable types, with a
pickle *escape hatch* for anything odd or oversized (big ints,
application objects, non-UTF-8 strings).

Frames are self-describing and versioned: a decoder refuses a frame
whose magic or version it does not know (``WireFormatError``), which is
the upgrade rule — bump :data:`WIRE_VERSION` on any layout change, never
reinterpret silently.  Any other frame it cannot read — lengths past the
end, counts that disagree, trailing bytes, a payload body that is not
what its tag says — is a ``WireFormatError`` too, and nothing else.  An
encoder that cannot represent a batch at all (a non-DATA message, a
control payload, an id outside the fixed-width fields) raises
:class:`WireEncodeError`; the worker then falls back to the pickled
queue path for that batch, so the ring only ever carries frames this
module fully owns.

Round-trip contract (tests/parallel/test_wire.py): for every encodable
batch, ``decode_batch(encode_batch(...))`` reproduces the source shard,
every message's colour, and every event field *exactly* — floats are carried
as IEEE-754 doubles, i.e. bit-identical — so committed results are
byte-identical to a queue-wire run.  Receiver-side
``PhysicalMessage.serial`` is process-local bookkeeping and is minted
fresh on decode (nothing on the receive path reads it).

Frame layout (all little-endian; k messages carrying n events)::

    offset      field
    0           u16   magic 0x5257 ("RW")
    2           u8    version (currently 2)
    3           u8    frame kind (1 = data batch)
    4           u32   src_shard
    8           u32   k = n_messages
    12          u32   n = n_events (sum of the message counts)
    16          message table: k * (u32 colour | u32 src_lp |
                                    u32 dst_lp | u32 n_events)
    16 + 16k    senders    n*u32   (struct-of-arrays columns over all
                receivers  n*u32    n events, in message order)
                serials    n*u64
                signs      n*i8
                send_times n*f64
                recv_times n*f64
    16 + 16k    payloads   n * (u8 tag + body)   -- see _TAG_* below
      + 33n

The column order and widths are this module's own field table,
:data:`SOA_LAYOUT`.  A frame is exactly as long as its contents: the
decoder refuses trailing bytes.
"""

from __future__ import annotations

import pickle
import struct
from functools import lru_cache
from itertools import chain
from operator import attrgetter

from ..comm.message import MessageKind, PhysicalMessage
from ..kernel.event import Event
from .ipc import DataBatch

#: bump on ANY layout change; decoders reject unknown versions
WIRE_VERSION = 2
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
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: one event's column fields, in SOA_LAYOUT order
_row = attrgetter(*(attr for attr, _fmt, _width in SOA_LAYOUT))

# payload tag bytes
_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3  # i64 body; ints outside i64 escape to pickle
_TAG_FLOAT = 4  # f64 body
_TAG_STR = 5  # u32 length + utf-8 bytes
_TAG_BYTES = 6  # u32 length + raw bytes
_TAG_TUPLE = 7  # u32 count + nested tagged values
_TAG_PICKLE = 8  # u32 length + pickle bytes (the escape hatch)
_LENGTH_PREFIXED = frozenset({_TAG_STR, _TAG_BYTES, _TAG_PICKLE})
#: bytes one message takes in the message table
_MESSAGE_BYTES = 16
#: bytes one event takes across the six columns
_ROW_BYTES = sum(width for _attr, _fmt, width in SOA_LAYOUT)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class WireFormatError(ValueError):
    """A frame this decoder does not speak (magic/version/kind) or cannot
    read (lengths past its end, counts that disagree, trailing bytes, a
    corrupt payload body).  Frames arrive from another process, so these
    checks stay on in production."""


class WireEncodeError(ValueError):
    """This batch cannot be represented in the packed format; the caller
    must fall back to the pickled queue wire."""


# --------------------------------------------------------------------- #
# payload values
# --------------------------------------------------------------------- #
def _encode_payload(value, parts: list[bytes]) -> None:
    kind = type(value)
    if value is None:
        parts.append(b"\x00")
    elif kind is bool:
        parts.append(b"\x02" if value else b"\x01")
    elif kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            parts.append(b"\x03" + _I64.pack(value))
        else:
            blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            parts.append(b"\x08" + _U32.pack(len(blob)) + blob)
    elif kind is float:
        parts.append(b"\x04" + _F64.pack(value))
    elif kind is str:
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError:  # lone surrogates etc.
            blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            parts.append(b"\x08" + _U32.pack(len(blob)) + blob)
        else:
            parts.append(b"\x05" + _U32.pack(len(raw)) + raw)
    elif kind is bytes:
        parts.append(b"\x06" + _U32.pack(len(value)) + value)
    elif kind is tuple:
        parts.append(b"\x07" + _U32.pack(len(value)))
        for item in value:
            _encode_payload(item, parts)
    else:
        # the escape hatch: frozen dataclasses, enums, Decimal, ...
        try:
            blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable payload: not our problem
            raise WireEncodeError(f"unencodable payload: {exc}") from exc
        parts.append(b"\x08" + _U32.pack(len(blob)) + blob)


def _field_end(buf, offset: int, nbytes: int) -> int:
    """End offset of an ``nbytes`` field at ``offset``, which must fit."""
    end = offset + nbytes
    if end > len(buf):
        raise WireFormatError(f"{nbytes} bytes at offset {offset} overrun a {len(buf)}-byte frame")
    return end


def _decode_payload(buf, offset: int):
    tag = buf[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag in _LENGTH_PREFIXED:
        n = _U32.unpack_from(buf, offset)[0]
        offset += 4
        end = _field_end(buf, offset, n)
        body = bytes(buf[offset:end])
        if tag == _TAG_STR:
            try:
                return body.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise WireFormatError(
                    f"invalid UTF-8 in str body at offset {offset}: {exc}"
                ) from exc
        if tag == _TAG_PICKLE:
            try:
                return pickle.loads(body), end
            except Exception as exc:  # damaged pickles fail in many types
                raise WireFormatError(
                    f"corrupt pickle body at offset {offset}: {exc!r}"
                ) from exc
        return body, end
    if tag == _TAG_TUPLE:
        count = _U32.unpack_from(buf, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_payload(buf, offset)
            items.append(item)
        return tuple(items), offset
    raise WireFormatError(f"unknown payload tag {tag} at offset {offset - 1}")


# --------------------------------------------------------------------- #
# batches
# --------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def _columns(n_messages: int, n_events: int) -> struct.Struct:
    """The message table plus the six event columns of one frame."""
    return struct.Struct(f"<{4 * n_messages}I" + "".join(
        f"{n_events}{fmt}" for _attr, fmt, _width in SOA_LAYOUT
    ))


def encode_batch(src_shard: int, messages: tuple[PhysicalMessage, ...]) -> bytes:
    """Pack one outbox drain into a single binary frame.

    Raises :class:`WireEncodeError` when any message falls outside the
    packed format's fixed-width fields (the caller falls back to the
    pickled queue wire for the whole batch).
    """
    table: list[int] = []
    events: list[Event] = []
    for message in messages:
        if message.kind is not MessageKind.DATA or message.control is not None:
            raise WireEncodeError(
                f"only plain DATA messages ride the ring, got {message.kind}"
            )
        table += (message.colour, message.src_lp, message.dst_lp, len(message.events))
        events += message.events
    k, n = len(messages), len(events)
    try:
        parts: list[bytes] = [
            _HEADER.pack(_MAGIC, WIRE_VERSION, _FRAME_DATA_BATCH,
                         src_shard, k, n),
            _columns(k, n).pack(
                *table, *chain.from_iterable(zip(*map(_row, events)))
            ),
        ]
    except struct.error as exc:
        raise WireEncodeError(str(exc)) from exc
    for event in events:
        _encode_payload(event.payload, parts)
    return b"".join(parts)


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
        offset = _field_end(
            frame, _HEADER.size, k * _MESSAGE_BYTES + n * _ROW_BYTES
        )
        values = _columns(k, n).unpack_from(frame, _HEADER.size)
        table = values[:4 * k]
        counts = table[3::4]
        if sum(counts) != n:
            raise WireFormatError(
                f"message counts sum to {sum(counts)}, header says {n} events"
            )
        payloads = []
        for _ in range(n):
            payload, offset = _decode_payload(frame, offset)
            payloads.append(payload)
    except (struct.error, IndexError) as exc:  # a field cut off by the end
        raise WireFormatError(f"truncated {size}-byte frame: {exc}") from exc
    if offset != size:
        raise WireFormatError(
            f"{size - offset} trailing bytes after offset {offset}"
        )
    c = 4 * k
    senders, receivers, serials, signs, send_times, recv_times = (
        values[c + i * n:c + (i + 1) * n] for i in range(len(SOA_LAYOUT))
    )
    events = tuple(map(
        Event, senders, receivers, send_times, recv_times, payloads,
        serials, signs,
    ))
    messages: list[PhysicalMessage] = []
    start = 0
    for i in range(0, c, 4):
        colour, src_lp, dst_lp, count = table[i:i + 4]
        messages.append(PhysicalMessage(
            src_lp=src_lp,
            dst_lp=dst_lp,
            kind=MessageKind.DATA,
            events=events[start:start + count],
            colour=colour,
        ))
        start += count
    return DataBatch(src_shard, tuple(messages))
