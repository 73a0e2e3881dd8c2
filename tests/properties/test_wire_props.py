"""Property tests for the packed inter-shard wire (docs/parallel.md).

``decode_batch(encode_batch(...))`` must be the identity over every
encodable batch — exact payload values (floats bit-identical), exact
serials/signs/colours — because the parallel backend's differential
validation compares committed results byte-for-byte against the
sequential golden.  The ring property drives a randomized push/pop
schedule (including forced wraparound and full-ring rejections) and
demands byte-exact FIFO delivery.  The decoder's own contract is typed
failure: frames come from another process, so a truncated or
overwritten frame either decodes or raises ``WireFormatError`` — never
a ``UnicodeDecodeError``, an unpickling error or a ``struct.error``.
"""

import math

from hypothesis import given, strategies as st

from repro.comm.message import MessageKind, PhysicalMessage
from repro.kernel.event import Event
from repro.parallel.shm import ShmRing
from repro.parallel.wire import WireFormatError, decode_batch, encode_batch

# scalars of every kind a payload column carries, big ints and
# awkward-but-legal strings included
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
    st.floats(allow_nan=False),                          # incl. ±inf
    st.text(max_size=40),
    st.binary(max_size=40),
)
_payloads = st.one_of(
    _scalars,
    st.tuples(_scalars, _scalars),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
)

_times = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


@st.composite
def _events(draw):
    send_time = draw(_times)
    return Event(
        sender=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        receiver=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        send_time=send_time,
        recv_time=send_time + draw(_times),
        payload=draw(_payloads),
        serial=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        sign=draw(st.sampled_from((1, -1))),
    )


@st.composite
def _messages(draw):
    events = draw(st.lists(_events(), min_size=0, max_size=40))
    return PhysicalMessage(
        src_lp=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        dst_lp=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        kind=MessageKind.DATA,
        events=tuple(events),
        colour=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def _exact_eq(a, b) -> bool:
    """Value + type equality, distinguishing 0.0 from -0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return math.copysign(1.0, a) == math.copysign(1.0, b) and (
            a == b or (math.isnan(a) and math.isnan(b))
        )
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_exact_eq, a, b))
    return a == b


class TestEncodeDecodeIdentity:
    @given(
        src_shard=st.integers(min_value=0, max_value=2**32 - 1),
        messages=st.lists(_messages(), min_size=0, max_size=5),
    )
    def test_round_trip_identity(self, src_shard, messages):
        batch = decode_batch(encode_batch(src_shard, tuple(messages)))
        assert batch.src_shard == src_shard
        assert len(batch.messages) == len(messages)
        for message, got in zip(messages, batch.messages):
            assert got.colour == message.colour
            assert got.src_lp == message.src_lp
            assert got.dst_lp == message.dst_lp
            assert got.kind is MessageKind.DATA
            assert len(got.events) == len(message.events)
            for original, decoded in zip(message.events, got.events):
                assert decoded.sender == original.sender
                assert decoded.receiver == original.receiver
                assert decoded.serial == original.serial
                assert decoded.sign == original.sign
                # times must survive bit-identically (IEEE-754 doubles)
                assert decoded.send_time == original.send_time
                assert decoded.recv_time == original.recv_time
                assert _exact_eq(decoded.payload, original.payload)

    @given(payload=_payloads)
    def test_payload_size_extremes(self, payload):
        # a max-ish payload pushed through one event still round-trips
        event = Event(sender=0, receiver=0, send_time=0.0, recv_time=1.0,
                      payload=(payload, "x" * 2000, b"\xff" * 2000),
                      serial=1)
        message = PhysicalMessage(src_lp=0, dst_lp=1, kind=MessageKind.DATA,
                                  events=(event,), colour=7)
        (got,) = decode_batch(encode_batch(0, (message,))).messages
        assert _exact_eq(got.events[0].payload, event.payload)


class TestDecoderTypedErrors:
    @given(
        messages=st.lists(_messages(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_damaged_frame_decodes_or_raises_format_error(self, messages, data):
        frame = bytearray(encode_batch(0, tuple(messages)))
        if data.draw(st.booleans(), label="truncate"):
            damaged = frame[:data.draw(st.integers(0, len(frame) - 1))]
        else:
            at = data.draw(st.integers(0, len(frame) - 1), label="offset")
            frame[at] = data.draw(st.integers(0, 255), label="byte")
            damaged = frame
        try:
            decode_batch(bytes(damaged))
        except WireFormatError:
            pass


class TestRingFifoProperty:
    @given(
        ops=st.lists(
            st.one_of(
                st.binary(min_size=0, max_size=300),  # push this record
                st.none(),                            # pop one
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_randomized_push_pop_is_fifo(self, ops):
        ring = ShmRing.create(1 << 10)  # tiny: wraps and fills often
        try:
            pushed, popped = [], []
            for op in ops:
                if op is None:
                    record = ring.try_pop()
                    if record is not None:
                        popped.append(record)
                elif ring.try_push(op):
                    pushed.append(op)
            while (record := ring.try_pop()) is not None:
                popped.append(record)
            assert popped == pushed
            assert ring.empty
        finally:
            ring.destroy()
