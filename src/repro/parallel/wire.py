"""Packed binary encoding of inter-shard data batches.

The queue wire pickles whole :class:`~repro.parallel.ipc.DataBatch`
objects, which rebuilds every ``Event``/``PhysicalMessage`` dataclass
through the generic pickle machinery on both sides of every hop.  This
module replaces that with a versioned ``struct``-packed frame: the fixed
numeric event fields travel as struct-of-arrays blocks (one contiguous
``u32``/``u64``/``f64`` run per field, one ``struct`` call each), and
payloads travel as one tag byte plus an inline little-endian body for
the common immutable types, with a pickle *escape hatch* for anything
odd or oversized (big ints, application objects, non-UTF-8 strings).

Frames are self-describing and versioned: a decoder refuses a frame
whose magic or version it does not know (``WireFormatError``), which is
the upgrade rule — bump :data:`WIRE_VERSION` on any layout change, never
reinterpret silently.  An encoder that cannot represent a batch at all
(a non-DATA message, a control payload, an id outside the fixed-width
fields) raises :class:`WireEncodeError`; the worker then falls back to
the pickled queue path for that batch, so the ring only ever carries
frames this module fully owns.

Round-trip contract (tests/parallel/test_wire.py): for every encodable
batch, ``decode_batch(encode_batch(...))`` reproduces the source shard,
every colour stamp, and every event field *exactly* — floats are carried
as IEEE-754 doubles, i.e. bit-identical — so committed results are
byte-identical to a queue-wire run.  Receiver-side
``PhysicalMessage.serial`` is process-local bookkeeping and is minted
fresh on decode (nothing on the receive path reads it).

Frame layout (all little-endian)::

    offset  field
    0       u16   magic 0x5257 ("RW")
    2       u8    version (currently 1)
    3       u8    frame kind (1 = data batch)
    4       u32   src_shard
    8       u32   n_envelopes
    12      envelopes...

    envelope:
      u32 colour stamp | u32 src_lp | u32 dst_lp | u32 n_events
      senders    n*u32     (struct-of-arrays blocks)
      receivers  n*u32
      serials    n*u64
      signs      n*i8
      send_times n*f64
      recv_times n*f64
      payloads   n * (u8 tag + body)       -- see _TAG_* below

The block order and widths are this module's own field table,
:data:`SOA_LAYOUT`.
"""

from __future__ import annotations

import pickle
import struct

from ..comm.message import MessageKind, PhysicalMessage
from ..kernel.event import Event
from .ipc import DataBatch, Envelope

#: bump on ANY layout change; decoders reject unknown versions
WIRE_VERSION = 1
_MAGIC = 0x5257  # "RW"
_FRAME_DATA_BATCH = 1

#: the envelope's field blocks, in frame order: ``(Event attribute,
#: struct format, byte width)`` per scalar field
SOA_LAYOUT = (
    ("sender", "I", 4),
    ("receiver", "I", 4),
    ("serial", "Q", 8),
    ("sign", "b", 1),
    ("send_time", "d", 8),
    ("recv_time", "d", 8),
)

_HEADER = struct.Struct("<HBBII")
_ENVELOPE = struct.Struct("<IIII")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

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
#: bytes one event takes across an envelope's six field blocks
_ROW_BYTES = sum(width for _attr, _fmt, width in SOA_LAYOUT)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1


class WireFormatError(ValueError):
    """A frame this decoder does not speak (magic/version/kind) or whose
    lengths run past its end.  Frames arrive from another process, so
    these checks stay on in production."""


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
            return body.decode("utf-8"), end
        if tag == _TAG_PICKLE:
            return pickle.loads(body), end
        return body, end
    if tag == _TAG_TUPLE:
        count = _U32.unpack_from(buf, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_payload(buf, offset)
            items.append(item)
        return tuple(items), offset
    raise WireFormatError(f"unknown payload tag {tag}")


# --------------------------------------------------------------------- #
# struct-of-arrays field blocks
# --------------------------------------------------------------------- #
def _pack_block(values: list, fmt: str) -> bytes:
    try:
        return struct.pack(f"<{len(values)}{fmt}", *values)
    except struct.error as exc:
        raise WireEncodeError(str(exc)) from exc


# --------------------------------------------------------------------- #
# batches
# --------------------------------------------------------------------- #
def encode_batch(src_shard: int, envelopes: tuple[Envelope, ...]) -> bytes:
    """Pack one outbox drain into a single binary frame.

    Raises :class:`WireEncodeError` when any envelope falls outside the
    packed format's fixed-width fields (the caller falls back to the
    pickled queue wire for the whole batch).
    """
    parts: list[bytes] = [
        _HEADER.pack(_MAGIC, WIRE_VERSION, _FRAME_DATA_BATCH,
                     src_shard, len(envelopes))
    ]
    for stamp, message in envelopes:
        if message.kind is not MessageKind.DATA or message.control is not None:
            raise WireEncodeError(
                f"only plain DATA messages ride the ring, got {message.kind}"
            )
        events = message.events
        n = len(events)
        try:
            parts.append(_ENVELOPE.pack(stamp, message.src_lp,
                                        message.dst_lp, n))
        except struct.error as exc:
            raise WireEncodeError(str(exc)) from exc
        senders = []
        receivers = []
        serials = []
        signs = []
        send_times = []
        recv_times = []
        for event in events:
            senders.append(event.sender)
            receivers.append(event.receiver)
            serials.append(event.serial)
            signs.append(event.sign)
            send_times.append(event.send_time)
            recv_times.append(event.recv_time)
        columns = (senders, receivers, serials, signs, send_times, recv_times)
        for values, (_attr, fmt, _width) in zip(columns, SOA_LAYOUT):
            parts.append(_pack_block(values, fmt))
        for event in events:
            _encode_payload(event.payload, parts)
    return b"".join(parts)


def _decode_header(frame) -> tuple[int, int]:
    """Check magic/version/kind; return ``(src_shard, n_envelopes)``."""
    magic, version, kind, src_shard, n_envelopes = _HEADER.unpack_from(frame, 0)
    if magic != _MAGIC:
        raise WireFormatError(f"bad frame magic 0x{magic:04x}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version {version} not supported (speaking {WIRE_VERSION})"
        )
    if kind != _FRAME_DATA_BATCH:
        raise WireFormatError(f"unknown frame kind {kind}")
    return src_shard, n_envelopes


def decode_batch(frame) -> DataBatch:
    """Inverse of :func:`encode_batch` (accepts bytes or a memoryview)."""
    try:
        src_shard, n_envelopes = _decode_header(frame)
        offset = _HEADER.size
        envelopes: list[Envelope] = []
        for _ in range(n_envelopes):
            stamp, src_lp, dst_lp, n = _ENVELOPE.unpack_from(frame, offset)
            offset += _ENVELOPE.size
            _field_end(frame, offset, n * _ROW_BYTES)
            blocks = []
            for _attr, fmt, width in SOA_LAYOUT:
                blocks.append(struct.unpack_from(f"<{n}{fmt}", frame, offset))
                offset += n * width
            senders, receivers, serials, signs, send_times, recv_times = blocks
            events = []
            for i in range(n):
                payload, offset = _decode_payload(frame, offset)
                events.append(Event(
                    sender=senders[i],
                    receiver=receivers[i],
                    send_time=send_times[i],
                    recv_time=recv_times[i],
                    payload=payload,
                    serial=serials[i],
                    sign=signs[i],
                ))
            envelopes.append((stamp, PhysicalMessage(
                src_lp=src_lp,
                dst_lp=dst_lp,
                kind=MessageKind.DATA,
                events=tuple(events),
            )))
    except (struct.error, IndexError) as exc:  # a field cut off by the end
        raise WireFormatError(f"truncated {len(frame)}-byte frame: {exc}") from exc
    return DataBatch(src_shard, tuple(envelopes))
