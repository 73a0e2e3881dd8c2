"""Packed wire codec and shm ring-buffer tests (docs/parallel.md).

The codec's contract is exact round-trip: ``decode_batch(encode_batch())``
must reproduce every event field bit-identically, because the parallel
backend's differential validation compares committed results against the
sequential golden byte-for-byte.  The ring's contract is FIFO byte-exact
delivery across wraparound with honest backpressure (``try_push`` ->
``False`` on full, never a corrupted frame).
"""

import dataclasses
import multiprocessing
import os
import pickle
import queue as queue_mod
import select
import struct
import time
import types
from collections import deque
from unittest.mock import Mock

import pytest

from repro.apps import PHOLDParams, build_phold
from repro.bench.cli import main as bench_main
from repro.comm.message import MessageKind, PhysicalMessage
from repro.kernel.config import SimulationConfig
from repro.kernel.event import Event
from repro.parallel import shm as shm_mod
from repro.parallel import worker as worker_mod
from repro.parallel.ipc import DataBatch, Stop
from repro.parallel.shm import (
    RING_CAPACITY,
    RingCorruptError,
    RingRecordTooLarge,
    ShmRing,
    WakeBoard,
    shm_wire_supported,
)
from repro.parallel.wire import (
    SOA_LAYOUT,
    WIRE_VERSION,
    WireEncodeError,
    WireFormatError,
    decode_batch,
    encode_batch,
)
from repro.verify import run_scenario
from tests.helpers import PHOLD, inspection_shard

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)

needs_tso = pytest.mark.skipif(
    not shm_wire_supported(),
    reason="shm wire requires x86-TSO store ordering",
)


def _event(serial=0, payload=None, sign=1, sender=3, receiver=7,
           send_time=1.5, recv_time=2.5):
    return Event(sender=sender, receiver=receiver, send_time=send_time,
                 recv_time=recv_time, payload=payload, serial=serial,
                 sign=sign)


def _batch(events, *, colour=0, src_lp=3, dst_lp=7, src_shard=0):
    message = PhysicalMessage(src_lp=src_lp, dst_lp=dst_lp,
                              kind=MessageKind.DATA, events=tuple(events),
                              colour=colour)
    return src_shard, (message,)


def _roundtrip(events, **kwargs):
    src_shard, messages = _batch(events, **kwargs)
    batch = decode_batch(encode_batch(src_shard, messages))
    assert batch.src_shard == src_shard
    return batch


class TestCodecRoundTrip:
    @pytest.mark.parametrize("payload", [
        None, False, True, 0, -1, 2**62, -(2**62), 0.0, -0.25, 1e300,
        "", "hello", "uniçøde \U0001f600", b"", b"\x00\xff" * 9,
        (), (1, "two", 3.0, None, (True, b"x"))
    ])
    def test_payload_types(self, payload):
        batch = _roundtrip([_event(payload=payload)])
        (message,) = batch.messages
        assert message.events[0].payload == payload
        assert type(message.events[0].payload) is type(payload)

    @pytest.mark.parametrize("payload", [
        2**70, -(2**70),          # outside i64
        {"a": 1},
        frozenset({1, 2}),
        "\ud800",                 # a lone surrogate: not valid UTF-8
        (True, 2**70, ("\ud800", (None, b"")), 1.5),
    ])
    def test_escape_hatch_payloads(self, payload):
        # what wire v2 could not inline and sent through its pickle
        # escape hatch; v3 pickles every payload the same way
        batch = _roundtrip([_event(payload=payload)])
        (message,) = batch.messages
        assert message.events[0].payload == payload
        assert type(message.events[0].payload) is type(payload)

    @pytest.mark.parametrize("value", [-0.0, float("nan"), float("-inf")])
    def test_float_payloads_keep_their_bits(self, value):
        batch = _roundtrip([_event(payload=value), _event(payload=(value,))])
        bare, nested = (event.payload for event in batch.messages[0].events)
        assert struct.pack("<d", bare) == struct.pack("<d", value)
        assert struct.pack("<d", nested[0]) == struct.pack("<d", value)

    def test_one_payload_object_in_two_events(self):
        payload = (4, "shared", (2**70,))
        batch = _roundtrip([_event(serial=0, payload=payload),
                            _event(serial=1, payload=payload)])
        assert [event.payload for event in batch.messages[0].events] == [payload] * 2

    def test_message_sizes_ride_the_table(self):
        events = [_event(serial=s, payload=("x" * s, s)) for s in range(5)]
        src_shard, (message,) = _batch(events)
        (decoded,) = decode_batch(encode_batch(src_shard, (message,))).messages
        assert decoded.size_bytes() == message.size_bytes()
        assert all(event._size is None for event in decoded.events)  # not re-sized

    def test_event_fields_exact(self):
        events = [
            _event(serial=s, sign=-1 if s % 3 == 0 else 1,
                   send_time=s * 0.1, recv_time=s * 0.1 + 0.7,
                   payload=s)
            for s in range(40)  # a large message
        ]
        batch = _roundtrip(events, colour=5, src_lp=2, dst_lp=9, src_shard=1)
        (message,) = batch.messages
        assert message.colour == 5
        assert (message.src_lp, message.dst_lp) == (2, 9)
        assert message.kind is MessageKind.DATA
        for original, decoded in zip(events, message.events):
            assert decoded == original  # dataclass eq over every field
            assert decoded.serial == original.serial
            assert decoded.sign == original.sign

    def test_small_and_large_envelopes_round_trip(self):
        small = [_event(serial=s) for s in range(4)]
        large = [_event(serial=s) for s in range(64)]
        for events in (small, large):
            batch = _roundtrip(events)
            (message,) = batch.messages
            assert [e.serial for e in message.events] == \
                [e.serial for e in events]

    def test_multiple_envelopes(self):
        messages = tuple(
            PhysicalMessage(
                src_lp=i, dst_lp=i + 1, kind=MessageKind.DATA,
                events=(_event(serial=i, payload=f"e{i}"),), colour=10 + i,
            )
            for i in range(5)
        )
        batch = decode_batch(encode_batch(2, messages))
        assert len(batch.messages) == 5
        for i, message in enumerate(batch.messages):
            assert (message.src_lp, message.colour) == (i, 10 + i)
            assert message.events[0].payload == f"e{i}"

    def test_decode_accepts_memoryview(self):
        src_shard, messages = _batch([_event(payload="mv")])
        frame = memoryview(encode_batch(src_shard, messages))
        (message,) = decode_batch(frame).messages
        assert message.events[0].payload == "mv"

    def test_soa_layout_matches_event_scalar_fields(self):
        # frames are packed in this exact block order; a drifted field
        # order would decode every event into the wrong fields
        assert [attr for attr, _fmt, _width in SOA_LAYOUT] == [
            "sender", "receiver", "serial", "sign", "send_time", "recv_time"
        ]


class TestCodecRejections:
    def test_control_message_is_not_encodable(self):
        message = PhysicalMessage(src_lp=0, dst_lp=1, kind=MessageKind.DATA,
                                  events=(), control={"x": 1})
        with pytest.raises(WireEncodeError):
            encode_batch(0, (message,))

    def test_non_data_kind_is_not_encodable(self):
        message = PhysicalMessage(src_lp=0, dst_lp=1,
                                  kind=MessageKind.GVT_TOKEN)
        with pytest.raises(WireEncodeError):
            encode_batch(0, (message,))

    def test_oversized_lp_id_falls_back(self):
        message = PhysicalMessage(src_lp=2**40, dst_lp=1,
                                  kind=MessageKind.DATA,
                                  events=(_event(),))
        with pytest.raises(WireEncodeError):
            encode_batch(0, (message,))

    def test_unpicklable_payload_falls_back(self):
        _src, messages = _batch([_event(payload=lambda: None)])
        with pytest.raises(WireEncodeError, match="unencodable payload"):
            encode_batch(0, messages)

    def test_bad_magic_rejected(self):
        src_shard, messages = _batch([_event()])
        frame = bytearray(encode_batch(src_shard, messages))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_batch(bytes(frame))

    def test_future_version_rejected_not_misread(self):
        # the versioning rule: unknown versions refuse loudly
        src_shard, messages = _batch([_event()])
        frame = bytearray(encode_batch(src_shard, messages))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode_batch(bytes(frame))

    def test_unknown_frame_kind_rejected(self):
        src_shard, messages = _batch([_event()])
        frame = bytearray(encode_batch(src_shard, messages))
        frame[3] = 99
        with pytest.raises(WireFormatError, match="kind"):
            decode_batch(bytes(frame))


def _multi_envelope_frame() -> bytes:
    """Three messages with small and large column blocks, and str /
    bytes / nested tuple / dict payloads in the pickled column."""
    payloads = ["text", b"\x00\x01\x02", (1, "two", (3.0, None)), {"k": 2**70},
                7, -0.5, None, True]
    messages = tuple(
        PhysicalMessage(
            src_lp=colour, dst_lp=colour + 1, kind=MessageKind.DATA,
            events=tuple(
                _event(serial=i, payload=payloads[i % len(payloads)])
                for i in range(n)
            ),
            colour=colour,
        )
        for colour, n in enumerate((3, 40, 8))
    )
    return encode_batch(1, messages)


#: where _multi_envelope_frame's payload column starts
_COLUMN = 16 + 3 * 20 + 51 * 33


class TestTruncatedFrames:
    """Bytes from another process: a frame whose lengths run past its end
    is a typed error at the decoder, not a ``struct.error`` further in."""

    def test_every_proper_prefix_rejected(self):
        frame = _multi_envelope_frame()
        decode_batch(frame)  # the whole frame is fine
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_batch(frame[:cut])

    # _multi_envelope_frame: k = 3 messages, n = 3 + 40 + 8 = 51 events;
    # the payload column starts after the 16-byte header, the 20k-byte
    # message table and the 33n bytes of columns, with PROTO 5 and then
    # a FRAME opcode whose u64 length covers the rest of the pickle
    @pytest.mark.parametrize("offset, value", [
        (8, 3),                        # header: n_messages
        (12, 51),                      # header: n_events
        (16 + 12, 3),                  # message table: first count
        (_COLUMN + 3, 181),            # payload column: its pickle frame
    ])
    def test_flipped_length_field_rejected(self, offset, value):
        frame = bytearray(_multi_envelope_frame())
        assert int.from_bytes(frame[offset:offset + 4], "little") == value
        frame[offset + 3] ^= 0x40  # + 2**30 in a little-endian u32
        with pytest.raises(WireFormatError):
            decode_batch(bytes(frame))

    def test_column_length_is_the_rest_of_the_frame(self):
        frame = _multi_envelope_frame()
        assert frame[_COLUMN:_COLUMN + 3] == b"\x80\x05\x95"  # PROTO 5, FRAME
        assert len(frame) - _COLUMN - 11 == 181

    def test_envelope_counts_must_sum_to_n_events(self):
        frame = bytearray(_multi_envelope_frame())
        frame[16 + 12] = 2  # first message claims 2 of its 3 events
        with pytest.raises(WireFormatError, match="sum to 50"):
            decode_batch(bytes(frame))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireFormatError, match="1 trailing bytes"):
            decode_batch(_multi_envelope_frame() + b"\x00")

    def test_a_second_column_is_trailing_bytes(self):
        # a whole well-formed pickle after the column is still left over
        extra = pickle.dumps((None,), pickle.HIGHEST_PROTOCOL)
        with pytest.raises(WireFormatError, match=f"{len(extra)} trailing bytes"):
            decode_batch(_multi_envelope_frame() + extra)

    @pytest.mark.parametrize("column", [
        [None] * 51,        # a list, not a tuple
        (None,) * 50,       # one payload short
        (None,) * 52,
        None,
    ])
    def test_column_that_is_not_an_n_tuple_rejected(self, column):
        frame = _multi_envelope_frame()[:_COLUMN]
        frame += pickle.dumps(column, pickle.HIGHEST_PROTOCOL)
        with pytest.raises(WireFormatError, match="not a 51-tuple"):
            decode_batch(frame)

    def test_v2_frame_refused_by_version(self):
        # version 2: 16-byte message entries with no size, then one tag
        # byte per payload (0 = None) in place of the pickled column
        v2_frame = (struct.pack("<HBBIII", 0x5257, 2, 1, 0, 1, 1)
                    + struct.pack("<IIII", 0, 3, 7, 1)
                    + struct.pack("<IIQbdd", 3, 7, 0, 1, 1.5, 2.5) + b"\x00")
        with pytest.raises(WireFormatError, match="version 2"):
            decode_batch(v2_frame)

    def test_v1_frame_refused_by_version(self):
        # version 1: a 12-byte header with no event count, then per-
        # envelope field blocks; an empty one is shorter than a v2 header
        v1_empty = struct.pack("<HBBII", 0x5257, 1, 1, 0, 0)
        v1_frame = (struct.pack("<HBBII", 0x5257, 1, 1, 0, 1)
                    + struct.pack("<IIII", 0, 3, 7, 1)
                    + struct.pack("<IIQbdd", 3, 7, 0, 1, 1.5, 2.5) + b"\x00")
        for frame in (v1_empty, v1_frame):
            with pytest.raises(WireFormatError, match="version 1"):
                decode_batch(frame)

    def test_corrupt_utf8_body_is_a_format_error(self):
        src_shard, messages = _batch([_event(payload="hello")])
        frame = bytearray(encode_batch(src_shard, messages))
        frame[frame.index(b"hello")] = 0xFF
        with pytest.raises(WireFormatError, match="corrupt payload column at offset"):
            decode_batch(bytes(frame))

    def test_corrupt_pickle_body_is_a_format_error(self):
        src_shard, messages = _batch([_event(payload={"k": 1})])
        frame = encode_batch(src_shard, messages)
        with pytest.raises(WireFormatError, match="corrupt payload column at offset"):
            decode_batch(frame[:-1] + b"\x00")  # STOP opcode overwritten


class TestShmRing:
    def test_fifo_byte_exact(self, ring):
        records = [bytes([i]) * (i + 1) for i in range(50)]
        for record in records:
            assert ring.try_push(record)
        popped = []
        while (record := ring.try_pop()) is not None:
            popped.append(record)
        assert popped == records
        assert ring.empty

    def test_wraparound_preserves_order(self, ring):
        # records sized so the write offset crosses the physical end
        # many times; every byte must still come out in order
        record = bytes(range(256)) * 3  # 768 B in a 4 KiB ring
        for round_no in range(40):
            payload = bytes([round_no]) + record
            assert ring.try_push(payload)
            assert ring.try_pop() == payload

    def test_interleaved_wraparound(self, ring):
        pushed = []
        popped = []
        sizes = [700, 13, 421, 999, 64, 1, 333]
        seq = 0
        for _ in range(30):
            for size in sizes:
                payload = seq.to_bytes(4, "little") * (size // 4 + 1)
                if ring.try_push(payload):
                    pushed.append(payload)
                    seq += 1
                else:
                    record = ring.try_pop()
                    assert record is not None
                    popped.append(record)
        while (record := ring.try_pop()) is not None:
            popped.append(record)
        assert popped == pushed

    def test_full_ring_backpressure(self, ring):
        record = b"x" * 1000
        accepted = 0
        while ring.try_push(record):
            accepted += 1
        assert accepted >= 3  # 4 KiB ring, ~1 KiB records
        assert not ring.try_push(record)  # still full, still honest
        assert ring.try_pop() == record
        assert ring.try_push(record)  # space reclaimed after a pop

    def test_record_too_large_raises(self, ring):
        with pytest.raises(RingRecordTooLarge):
            ring.try_push(b"y" * (ring.max_record + 1))

    def test_max_record_pushable_at_any_offset(self):
        # Regression: with max_record > capacity//2 a large record could
        # land at an offset where neither the straight run nor the wrap
        # path ever fits — permanently unpushable on an *empty* ring
        # (e.g. a 700-byte record at offset 600 of a 1024-byte ring).
        ring = ShmRing.create(1024)
        try:
            big = b"m" * ring.max_record
            # walk the write offset all around the ring
            for size in range(1, ring.max_record + 1, 7):
                filler = b"f" * size
                assert ring.try_push(filler)
                assert ring.try_pop() == filler
                assert ring.empty
                assert ring.try_push(big), f"wedged after {size}B filler"
                assert ring.try_pop() == big
        finally:
            ring.destroy()

    def test_pop_empty_returns_none(self, ring):
        assert ring.try_pop() is None
        assert ring.empty

    def test_waiting_flag_handshake(self, ring):
        assert not ring.take_waiting()  # nothing armed
        ring.set_waiting()
        assert ring.take_waiting()      # producer test-and-clears
        assert not ring.take_waiting()  # exactly once
        ring.set_waiting()
        ring.clear_waiting()
        assert not ring.take_waiting()

    def test_default_capacity_ring(self):
        ring = ShmRing.create()
        try:
            assert ring.capacity == RING_CAPACITY
            assert ring.try_push(b"z" * ring.max_record)
            assert ring.try_pop() == b"z" * ring.max_record
        finally:
            ring.destroy()

    def test_unusably_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            ShmRing.create(16)

    @pytest.mark.parametrize("tail", [1, 3, (1 << 12) + 1, 1 << 40])
    def test_span_that_cannot_be_a_record_is_located(self, ring, tail):
        # head != tail is not "a record is there"
        ring._cursors[shm_mod._TAIL] = tail
        with pytest.raises(RingCorruptError) as caught:
            ring.try_pop()
        error = caught.value
        assert isinstance(error, WireFormatError)
        assert (error.ring, error.head, error.tail) == (ring.name, 0, tail)
        assert ring.name in str(error) and str(tail) in str(error)

    def test_length_beyond_the_published_span_is_located(self, ring):
        assert ring.try_push(b"abcd")
        ring._buf[shm_mod._HEADER_BYTES:shm_mod._HEADER_BYTES + 4] = \
            (5).to_bytes(4, "little")
        with pytest.raises(RingCorruptError) as caught:
            ring.try_pop()
        assert (caught.value.head, caught.value.tail, caught.value.n) == (0, 8, 5)


class TestWakeBoard:
    """Doorbells and busy bytes, driven from one process (the two-process
    protocol test is tests/parallel/test_wake_xproc.py)."""

    @pytest.fixture()
    def board(self):
        board = WakeBoard(2)
        yield board
        board.close()

    @staticmethod
    def rung(board, slot):
        return bool(select.select([board._pipes[slot][0]], [], [], 0)[0])

    def test_a_ring_ends_the_wait_and_is_drained_by_it(self, board):
        board.ring(1)
        board.ring(1)  # duplicates coalesce into one wake-up
        started = time.monotonic()
        board.wait(1, timeout=30.0)
        assert time.monotonic() - started < 5.0
        assert not self.rung(board, 1)
        assert not self.rung(board, 0)  # nobody else's bell moved

    def test_wait_returns_on_a_readable_reader_or_the_timeout(self, board):
        r, w = os.pipe()
        try:
            started = time.monotonic()
            board.wait(0, timeout=0.01)
            assert time.monotonic() - started < 5.0
            os.write(w, b"x")
            board.wait(0, (r,), timeout=30.0)
            assert time.monotonic() - started < 5.0
            assert os.read(r, 8) == b"x"  # the reader is the caller's to drain
        finally:
            os.close(r)
            os.close(w)

    def test_a_full_pipe_is_not_an_error(self, board):
        for _ in range(70_000):  # past the 64 KiB pipe buffer
            board.ring(0)
        board.wait(0, timeout=30.0)
        assert not self.rung(board, 0)

    def test_the_last_busy_slot_to_go_dry_rings_the_coordinator(self, board):
        board.mark_busy(0)
        board.mark_busy(1)
        board.wait(0, timeout=0, dry=(0, 0))
        assert not self.rung(board, board.coordinator)  # slot 1 is busy
        board.mark_dry(1, 0, 0)  # retired, or blocked dry itself
        board.wait(0, timeout=0)  # an ordinary wait says nothing
        assert not self.rung(board, board.coordinator)
        board.wait(0, timeout=0, dry=(0, 0))
        assert self.rung(board, board.coordinator)
        board.wait(board.coordinator, timeout=30.0)
        # slot 0 came back busy from both dry waits
        board.wait(1, timeout=0, dry=(0, 0))
        assert not self.rung(board, board.coordinator)

    def test_a_message_in_flight_holds_the_hint_back(self, board):
        board.mark_dry(1, 0, 0)
        board.wait(0, timeout=0, dry=(3, 0))  # slot 1 has yet to receive 3
        assert not self.rung(board, board.coordinator)
        board.mark_dry(0, 3, 0)
        board.wait(1, timeout=0, dry=(2, 3))  # ... and slot 0 its 2 replies
        assert not self.rung(board, board.coordinator)
        board.mark_dry(1, 2, 3)
        board.wait(0, timeout=0, dry=(3, 2))
        assert self.rung(board, board.coordinator)

    def test_close_is_idempotent_and_closes_every_fd(self):
        before = len(os.listdir("/proc/self/fd"))
        board = WakeBoard(3)
        assert len(os.listdir("/proc/self/fd")) == before + 8
        board.close()
        board.close()
        assert len(os.listdir("/proc/self/fd")) == before


class TestShmWireSupported:
    @pytest.mark.parametrize("machine", ["x86_64", "AMD64", "amd64", "i686"])
    def test_tso_machines(self, machine):
        assert shm_wire_supported(machine)

    @pytest.mark.parametrize("machine", ["aarch64", "arm64", "ppc64le",
                                         "riscv64", "s390x", ""])
    def test_weakly_ordered_machines(self, machine):
        assert not shm_wire_supported(machine)


class TestBackpressureFallback:
    """A full ring that never drains must not wedge the producer."""

    def test_send_batch_gives_up_on_stuck_ring(self, monkeypatch):
        monkeypatch.setattr(worker_mod, "_BACKPRESSURE_YIELDS", 2)
        monkeypatch.setattr(worker_mod, "_BACKPRESSURE_MAX_WAITS", 3)
        monkeypatch.setattr(worker_mod, "BACKPRESSURE_WAIT_S", 0.0)

        ring = ShmRing.create(1 << 12)
        try:
            while ring.try_push(b"j" * 1000):
                pass
            while ring.try_push(b"j"):
                pass  # dead-consumer ring: brim-full, never drained

            class _Sink:
                def __init__(self):
                    self.items = []

                def put(self, item):
                    self.items.append(item)

            sink = _Sink()
            stub = type("StubRuntime", (), {})()
            stub.shard_id = 0
            stub._rings_out = {1: ring}
            stub._absorb_rings = lambda: 0
            stub.out_queues = {1: sink}
            stub._frames_sent = 0
            stub._ring_bytes_sent = 0
            stub._wire_fallbacks = 0
            stub._pin = float("inf")

            _src, messages = _batch([_event(payload="stuck")])
            worker_mod._ShardRuntime._send_batch(stub, 1, messages)

            assert stub._wire_fallbacks == 1
            assert stub._frames_sent == 0
            # the queued batch bypasses the ring its peer checks: the
            # shard's channel clock stays pinned at its least timestamp
            assert stub._pin == 2.5
            (fallback,) = sink.items
            assert isinstance(fallback, DataBatch)
            assert fallback.messages == messages
        finally:
            ring.destroy()


class _CadenceProbe:
    """A ``_ShardRuntime`` with every collaborator of ``run`` replaced by
    a recording stand-in: an LP that always has work, one inbound ring,
    the outbox and the inbox queue.  ``log`` is the order things happened
    in; the inbox delivers ``Stop`` once ``events`` have executed.

    ``frames`` wait in the ring from the start; ``arrivals`` maps an
    executed-event count to frames that land in the ring once that many
    events have run, ``backlog`` to batches parked in the absorbed
    backlog then.  With ``peer_clock`` set, the one peer publishes that
    clock and the shard raises its bounds before every event, as it does
    on the shm wire; the LP's next event is always at 5.0."""

    def __init__(self, *, n_shards, with_ring, events=400, frames=(),
                 arrivals=None, backlog=None, peer_clock=None):
        log = self.log = []
        executed = [0]
        frames = list(frames)
        arrivals = dict(arrivals or {})
        backlog = dict(backlog or {})

        class Comm:
            least_enqueued = float("inf")

            def flush_all(self):
                log.append("aggregate")

        class Lp:
            clock = 0.0
            comm = Comm()
            safe_bound = float("-inf")  # no channel clocks in play
            commit_bound = float("-inf")
            pending = types.SimpleNamespace(heap=[((5.0,), None)])

            def initialize(self):
                pass

            def fossil_bound(self):
                return float("-inf")  # nothing to collect

            def execute_one(self):
                executed[0] += 1
                log.append("exec")
                frames.extend(arrivals.pop(executed[0], ()))
                runtime._pending.extend(backlog.pop(executed[0], ()))
                return True

        class Ring:
            @property
            def used(self):
                return sum(map(len, frames))

            def try_pop(self):
                log.append("ring")
                return frames.pop(0) if frames else None

        class Inbox:
            def get_nowait(self):
                log.append("queue")
                if executed[0] >= events:
                    return Stop(final_gvt=0.0, total_sent=0, total_received=0)
                raise queue_mod.Empty

        class Runtime(worker_mod._ShardRuntime):
            def __init__(self):  # none of the real construction
                pass

            def _handle(self, message):
                if isinstance(message, Stop):
                    self._stop = message
                else:
                    (physical,) = message.messages
                    log.append(("handled", physical.events[0].payload))

            def _flush_outbox(self):
                log.append("flush")

            def _finish(self, stop):
                log.append("finish")

        runtime = self.runtime = Runtime()
        runtime.plan = types.SimpleNamespace(
            config=types.SimpleNamespace(max_executed_events=None),
            n_shards=n_shards,
        )
        runtime.shard_id = 0
        runtime.lp = Lp()
        runtime.inbox = Inbox()
        # the inbox pipe always looks readable: every poll reaches the queue
        runtime._inbox_ready = types.SimpleNamespace(poll=lambda _timeout: [(0, select.POLLIN)])
        runtime._rings_in = {1: Ring()} if with_ring else {}
        runtime._pending = deque()
        runtime._frames_received = 0
        runtime._settles = 0
        runtime._stop = None
        runtime._retired = False
        runtime._paused_epoch = None
        runtime._executed = 0
        runtime._peers = None
        runtime._refresh = False
        runtime._lazy = False
        runtime._collected = float("-inf")
        runtime._since_collect = 0
        if peer_clock is not None:
            runtime._clocks = [None, peer_clock]
            runtime._peers = [(1, runtime._rings_in[1])]
            runtime._refresh = True
            runtime._lookahead = 1.0
            runtime._pin = float("inf")

    def run(self):
        self.runtime.run()
        assert self.log[-1] == "finish"
        return self.log

    def gaps(self, marker):
        """Executed events between consecutive ``marker`` entries."""
        gaps, run = [], 0
        for entry in self.log:
            if entry == "exec":
                run += 1
            elif entry == marker:
                gaps.append(run)
                run = 0
        return gaps


class TestPollCadence:
    """The worker loop's two cadences (worker.RING_SLICE / EXECUTE_SLICE).

    Structure only — how often the loop looks at each source per executed
    event.  What the cadence buys (commit efficiency) depends on OS
    scheduling and is measured by benchmarks/e2e, not gated here.
    """

    def test_shm_wire_polls_rings_and_flushes_every_ring_slice(self):
        probe = _CadenceProbe(n_shards=2, with_ring=True)
        probe.run()
        assert max(probe.gaps("ring")) == worker_mod.RING_SLICE
        assert max(probe.gaps("flush")) == worker_mod.RING_SLICE
        # the control queue costs a syscall: at most one poll per 32 events
        # ([0] is the poll before any event)
        assert set(probe.gaps("queue")[1:]) == {worker_mod.EXECUTE_SLICE}

    def test_queue_wire_with_peers_takes_the_short_cadence(self):
        probe = _CadenceProbe(n_shards=2, with_ring=False)
        probe.run()
        assert set(probe.gaps("queue")[1:]) == {worker_mod.RING_SLICE}
        assert set(probe.gaps("flush")) == {worker_mod.RING_SLICE}

    def test_single_shard_keeps_the_long_slice(self):
        probe = _CadenceProbe(n_shards=1, with_ring=False)
        log = probe.run()
        # no peer to hear from: one queue poll per EXECUTE_SLICE events
        assert set(probe.gaps("queue")[1:]) == {worker_mod.EXECUTE_SLICE}
        assert set(probe.gaps("flush")) == {worker_mod.EXECUTE_SLICE}
        assert log.count("queue") == 1 + log.count("exec") // worker_mod.EXECUTE_SLICE

    @pytest.mark.parametrize("n_shards, with_ring, slice_", [
        (2, True, worker_mod.RING_SLICE),
        (2, False, worker_mod.RING_SLICE),
        (1, False, worker_mod.EXECUTE_SLICE),
    ])
    def test_aggregates_leave_at_every_data_wire_look(self, n_shards,
                                                      with_ring, slice_):
        # the slice is DyMA's window: every aggregate is flushed right
        # before the outbox drains, never inside a slice
        probe = _CadenceProbe(n_shards=n_shards, with_ring=with_ring)
        log = probe.run()
        assert set(probe.gaps("aggregate")) == {slice_}
        looks = [i for i, entry in enumerate(log) if entry == "flush"]
        assert len(looks) == log.count("aggregate")
        assert all(log[i - 1] == "aggregate" for i in looks)

    def test_absorbed_backlog_is_handled_before_newer_ring_frames(self):
        def batch(label):
            return _batch([_event(payload=label)], src_shard=1)

        probe = _CadenceProbe(
            n_shards=2, with_ring=True,
            frames=[encode_batch(*batch("ring-1")), encode_batch(*batch("ring-2"))],
        )
        # what _absorb_rings parks while a send is blocked on a full ring
        probe.runtime._pending.extend(
            DataBatch(*batch(label)) for label in ("absorbed-1", "absorbed-2")
        )
        log = probe.run()
        handled = [entry[1] for entry in log if isinstance(entry, tuple)]
        assert handled == ["absorbed-1", "absorbed-2", "ring-1", "ring-2"]
        assert log.index(("handled", "ring-2")) < log.index("exec")
        assert probe.runtime._frames_received == 2


def _frame(label):
    return encode_batch(*_batch([_event(payload=label)], src_shard=1))


class TestControlPoll:
    """The control queue is asked for a record only when its pipe is
    readable: an empty ``mp.Queue.get_nowait`` builds a selector per call,
    and every shard polls once per EXECUTE_SLICE events."""

    def test_an_empty_inbox_is_looked_at_not_asked(self):
        inbox = multiprocessing.Queue()
        try:
            runtime = inspection_shard(
                0, build_phold(PHOLDParams(n_objects=4, n_lps=2)),
                SimulationConfig(backend="parallel", workers=2, end_time=10.0),
                inbox=inbox,
            )
            asked = Mock(wraps=inbox.get_nowait)
            inbox.get_nowait = asked
            assert runtime._next_nowait() is None
            assert not asked.called
            stop = Stop(final_gvt=1.0, total_sent=2, total_received=2)
            inbox.put(stop)  # a feeder thread writes it to the pipe
            deadline = time.monotonic() + 10.0
            while (record := runtime._next_nowait()) is None:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert record == stop
            assert asked.call_count == 1
            assert runtime._next_nowait(poll_queue=False) is None
        finally:
            inbox.close()
            inbox.join_thread()


class TestPollCadenceWithChannelClocks:
    """Inbound data that lands inside a slice, on the shm wire with a peer:
    it is handled before an event that would run optimistically (it may
    raise the bound enough to commit that event at once), and the slice
    still flushes only at its end."""

    def handled_at(self, log, label):
        """Events executed before the batch ``label`` was handled."""
        return log[:log.index(("handled", label))].count("exec")

    def test_a_waiting_frame_is_handled_before_a_speculative_event(self):
        probe = _CadenceProbe(n_shards=2, with_ring=True, peer_clock=0.0,
                              arrivals={3: [_frame("mid-slice")]})
        log = probe.run()
        assert self.handled_at(log, "mid-slice") == 3  # not at the slice's end
        assert probe.runtime._settles == 1
        assert probe.runtime._frames_received == 1
        assert log.index(("handled", "mid-slice")) < log.index("flush")

    def test_an_absorbed_backlog_is_handled_before_a_speculative_event(self):
        batch = DataBatch(*_batch([_event(payload="absorbed")], src_shard=1))
        probe = _CadenceProbe(n_shards=2, with_ring=True, peer_clock=0.0,
                              backlog={5: [batch]})
        log = probe.run()
        assert self.handled_at(log, "absorbed") == 5
        assert probe.runtime._settles == 1
        assert not probe.runtime._pending

    def test_an_event_below_the_commit_bound_does_not_wait_for_the_wire(self):
        # the peer's clock is past the head: the event commits at once
        # whatever the frame says, so the frame waits for the slice's end
        probe = _CadenceProbe(n_shards=2, with_ring=True, peer_clock=100.0,
                              arrivals={3: [_frame("mid-slice")]})
        log = probe.run()
        assert self.handled_at(log, "mid-slice") == worker_mod.RING_SLICE
        assert probe.runtime._settles == 0
        # the rings are read between slices only (twice when one held a frame)
        assert set(probe.gaps("ring")) == {0, worker_mod.RING_SLICE}

    def test_nothing_waiting_means_no_extra_look(self):
        probe = _CadenceProbe(n_shards=2, with_ring=True, peer_clock=0.0)
        probe.run()
        assert probe.runtime._settles == 0
        # [0] is the look before any event
        assert set(probe.gaps("ring")[1:]) == {worker_mod.RING_SLICE}

    def test_flush_and_aggregate_cadence_stay_one_slice(self):
        # a frame lands inside every other slice and is handled at once;
        # DyMA's window is still the whole slice
        landings = range(3, 400, 2 * worker_mod.RING_SLICE)
        probe = _CadenceProbe(n_shards=2, with_ring=True, peer_clock=0.0,
                              arrivals={n: [_frame(n)] for n in landings})
        log = probe.run()
        assert probe.runtime._settles == len(landings)
        assert set(probe.gaps("flush")) == {worker_mod.RING_SLICE}
        assert set(probe.gaps("aggregate")) == {worker_mod.RING_SLICE}
        assert all(log[i - 1] == "aggregate"
                   for i, entry in enumerate(log) if entry == "flush")

    def test_settles_ride_the_shard_report_into_the_merged_counters(self):
        from repro.parallel.backend import ParallelSimulation

        config = SimulationConfig(backend="parallel", workers=2, end_time=50.0)

        def build():
            return build_phold(PHOLDParams(n_objects=8, n_lps=2))

        payloads = {}
        for shard_id, settles in ((0, 3), (1, 4)):
            runtime = inspection_shard(shard_id, build(), config)
            runtime._settles = settles
            payloads[shard_id] = runtime._final_payload()
            assert payloads[shard_id]["transport"]["settles"] == settles
        sim = ParallelSimulation.from_builder(build, config)
        sim._merge(payloads, final_gvt=0.0)
        assert sim.wire_stats["settles"] == 7


class TestWireConfig:
    def test_default_is_shm(self):
        # not a field: the frozen benchmark's provenance line reads the name
        assert SimulationConfig().wire == "shm"

    def test_wire_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SimulationConfig(wire="queue")
        config = dataclasses.replace(SimulationConfig(), workers=2)
        assert config.workers == 2 and config.wire == "shm"

    def test_cli_has_no_wire_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["parallel", "--app", "phold", "--wire", "queue"])
        assert exit_info.value.code == 2
        assert "--wire" in capsys.readouterr().err


def _parallel_phold(workers):
    from repro.parallel.backend import ParallelSimulation

    config = SimulationConfig(backend="parallel", workers=workers,
                              end_time=PHOLD.end_time)
    return ParallelSimulation.from_builder(PHOLD.build_partition, config)


@needs_fork
class TestWireParity:
    """Both wires must commit the identical sequential-golden result."""

    @pytest.mark.parametrize("wire", [
        pytest.param("shm", marks=needs_tso, id="ring"),
        pytest.param("queue", id="fallback"),
    ])
    def test_differential_matches_golden(self, wire, request):
        if wire == "queue":
            request.getfixturevalue("queue_wire")
        result = run_scenario(PHOLD.with_(backend="parallel", workers=2))
        assert result.ok, result.describe()
        assert result.raw["wire"] == wire  # no silent shm -> queue fallback

    @needs_tso
    def test_faw_aggregates_one_slice_per_physical_message(self):
        # the e2e par_cross_2w shape, shortened: with a modelled-clock
        # flush timer a 50 us window expired after about one event and
        # a physical message carried ~1.5 events; the slice carries ~5
        result = run_scenario(PHOLD.with_(
            backend="parallel", workers=2, end_time=1000.0,
            aggregation="fixed", aggregation_window=50.0,
            app_params={"n_objects": 16, "n_lps": 2, "jobs_per_object": 3},
        ))
        assert result.ok, result.describe()
        assert result.raw["wire"] == "shm"
        assert result.oracle_checks > 0 and result.violations == ()
        stats = result.raw["stats"]
        assert stats.events_on_wire / stats.physical_messages >= 2

    @needs_tso
    def test_shm_run_reports_ring_traffic(self):
        sim = _parallel_phold(workers=2)
        sim.run()
        assert sim.wire == "shm"
        assert sim.wire_stats["frames_sent"] > 0
        assert sim.wire_stats["ring_bytes_sent"] > 0
        assert sim.wire_stats["wire_fallbacks"] == 0

    def test_single_worker_degrades_to_queue(self):
        sim = _parallel_phold(workers=1)
        sim.run()
        assert sim.wire == "queue"  # no shard pairs, no rings

    def test_non_tso_machine_degrades_to_queue(self, queue_wire):
        sim = _parallel_phold(workers=2)
        sim.run()
        assert sim.wire == "queue"
        assert sim.wire_stats["frames_sent"] == 0

    def test_refused_allocation_degrades_to_queue(self, monkeypatch):
        first = ShmRing.create(RING_CAPACITY)  # the second ring is refused
        monkeypatch.setattr(ShmRing, "create", Mock(side_effect=[first, OSError("ENOSPC")]))
        sim = _parallel_phold(workers=2)
        sim.run()
        assert sim.wire == "queue" and sim.wire_stats["frames_sent"] == 0
        assert first._buf is None  # the ring made before the refusal is unmapped
