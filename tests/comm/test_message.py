"""Unit tests for physical messages."""

import pickle

from repro.comm.message import (
    PHYSICAL_HEADER_BYTES,
    MessageKind,
    PhysicalMessage,
)
from tests.helpers import make_event


class TestPhysicalMessage:
    def test_serials_are_unique(self):
        a = PhysicalMessage(0, 1, MessageKind.DATA)
        b = PhysicalMessage(0, 1, MessageKind.DATA)
        assert a.serial != b.serial

    def test_data_size_sums_events(self):
        events = (make_event(payload=(1, 2)), make_event(payload="abc", serial=1))
        msg = PhysicalMessage(0, 1, MessageKind.DATA, events=events)
        assert msg.size_bytes() == PHYSICAL_HEADER_BYTES + sum(
            e.size_bytes() for e in events
        )

    def test_control_size_is_fixed(self):
        token = PhysicalMessage(0, 1, MessageKind.GVT_TOKEN, control=object())
        assert token.size_bytes() == PHYSICAL_HEADER_BYTES + 32

    def test_min_event_time(self):
        events = (
            make_event(recv_time=30.0),
            make_event(recv_time=10.0, serial=1),
            make_event(recv_time=20.0, serial=2),
        )
        msg = PhysicalMessage(0, 1, MessageKind.DATA, events=events)
        assert msg.min_event_time() == 10.0

    def test_min_event_time_empty(self):
        assert PhysicalMessage(0, 1, MessageKind.GVT_TOKEN).min_event_time() is None

    def test_event_count(self):
        msg = PhysicalMessage(0, 1, MessageKind.DATA, events=(make_event(),))
        assert msg.event_count() == 1


class TestValueSemantics:
    """PhysicalMessage is a plain ``__slots__`` class; value behaviour is
    over its six public fields (the memoized wire size is derived)."""

    def message(self, **overrides):
        fields = dict(src_lp=0, dst_lp=1, kind=MessageKind.DATA,
                      events=(make_event(payload=(1, 2)),), control=None, serial=77)
        return PhysicalMessage(**{**fields, **overrides})

    def test_equality_and_hash_cover_the_six_public_fields(self):
        base = self.message()
        assert base == self.message() and hash(base) == hash(self.message())
        for name, other in [("src_lp", 5), ("dst_lp", 5), ("kind", MessageKind.GVT_TOKEN),
                            ("events", ()), ("control", "token"), ("serial", 78)]:
            assert base != self.message(**{name: other}), name
        assert base != "message"
        coloured = self.message(colour=9)  # send-time bookkeeping only
        assert coloured == base and hash(coloured) == hash(base)

    def test_repr_names_the_public_fields_only(self):
        text = repr(self.message(events=()))
        assert text == (
            "PhysicalMessage(src_lp=0, dst_lp=1, kind=<MessageKind.DATA: 'data'>, "
            "events=(), control=None, serial=77)"
        )

    def test_pickle_round_trip_keeps_serial_and_size(self):
        message = self.message()
        message.colour = 4
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message
        assert clone.serial == 77
        assert clone.colour == 4
        assert clone.size_bytes() == message.size_bytes()

    def test_unpickling_a_batch_sizes_no_payload(self, monkeypatch):
        """The queue wire ships whole pickled ``DataBatch``es: the size
        travels with each message, so no payload is walked again."""
        from repro.kernel import event as event_mod
        from repro.parallel.ipc import DataBatch

        events = tuple(make_event(payload=(i, "x" * i), serial=i) for i in range(5))
        batch = DataBatch(0, (self.message(events=events),))
        data = pickle.dumps(batch)
        calls = []
        real = event_mod.payload_size_bytes
        monkeypatch.setattr(
            event_mod, "payload_size_bytes",
            lambda payload: calls.append(payload) or real(payload),
        )
        (clone,) = pickle.loads(data).messages
        assert calls == []
        assert clone == batch.messages[0]
        assert clone.size_bytes() == batch.messages[0].size_bytes()

    def test_wire_round_trip_decodes_to_an_equal_message(self):
        from repro.parallel.wire import decode_batch, encode_batch

        message = self.message(
            events=(make_event(payload=(1, "two", 3.0)), make_event(serial=1).anti_message())
        )
        message.colour = 5
        batch = decode_batch(encode_batch(0, (message,)))
        (decoded,) = batch.messages
        assert decoded.colour == 5
        assert decoded.events == message.events
        assert [e.key() for e in decoded.events] == [e.key() for e in message.events]
        assert decoded.size_bytes() == message.size_bytes()
