"""Unit tests for the event layer: total order, anti-messages, sizes."""

import pickle

import pytest

from repro.kernel.event import (
    EVENT_HEADER_BYTES,
    Event,
    EventId,
    EventKey,
    payload_size_bytes,
)
from tests.helpers import make_event


class TestEventKey:
    def test_orders_by_recv_time_first(self):
        early = make_event(recv_time=5.0, sender=9, serial=9)
        late = make_event(recv_time=6.0, sender=0, serial=0)
        assert early.key() < late.key()

    def test_ties_broken_by_receiver_then_sender(self):
        a = make_event(recv_time=5.0, receiver=1, sender=2)
        b = make_event(recv_time=5.0, receiver=2, sender=1)
        assert a.key() < b.key()
        c = make_event(recv_time=5.0, receiver=1, sender=1)
        assert c.key() < a.key()

    def test_ties_broken_by_send_time_then_serial(self):
        a = make_event(recv_time=5.0, send_time=1.0, serial=7)
        b = make_event(recv_time=5.0, send_time=2.0, serial=0)
        assert a.key() < b.key()
        c = make_event(recv_time=5.0, send_time=1.0, serial=8)
        assert a.key() < c.key()

    def test_distinct_events_have_distinct_keys(self):
        a = make_event(serial=0)
        b = make_event(serial=1)
        assert a.key() != b.key()

    def test_key_is_a_namedtuple_of_the_event_fields(self):
        event = make_event(sender=3, receiver=4, send_time=1.5, recv_time=2.5,
                           serial=11)
        assert event.key() == EventKey(2.5, 4, 3, 1.5, 11)


class TestAntiMessages:
    def test_anti_shares_identity(self):
        event = make_event(serial=42)
        anti = event.anti_message()
        assert anti.event_id() == event.event_id() == EventId(0, 42)
        assert anti.sign == -1
        assert anti.is_anti and not event.is_anti

    def test_anti_carries_no_payload(self):
        anti = make_event(payload=("big", "payload")).anti_message()
        assert anti.payload is None

    def test_anti_has_same_key_coordinates(self):
        event = make_event(recv_time=9.0, send_time=4.0)
        anti = event.anti_message()
        assert anti.recv_time == event.recv_time
        assert anti.send_time == event.send_time

    def test_cannot_negate_an_anti_message(self):
        anti = make_event().anti_message()
        with pytest.raises(ValueError):
            anti.anti_message()


class TestContent:
    def test_content_ignores_serial_only(self):
        a = make_event(send_time=1.0, serial=1, payload=(1, 2))
        b = make_event(send_time=1.0, serial=9, payload=(1, 2))
        assert a.content() == b.content()

    def test_content_distinguishes_send_time(self):
        # Send time participates in the total order among simultaneous
        # events, so lazy matching must treat a shifted send as a miss.
        a = make_event(send_time=1.0, payload=(1, 2))
        b = make_event(send_time=2.0, payload=(1, 2))
        assert a.content() != b.content()

    def test_content_distinguishes_receiver_time_payload(self):
        base = make_event(payload=(1,))
        assert base.content() != make_event(receiver=5, payload=(1,)).content()
        assert base.content() != make_event(recv_time=99.0, payload=(1,)).content()
        assert base.content() != make_event(payload=(2,)).content()


class TestSizes:
    @pytest.mark.parametrize(
        "payload,expected",
        [
            (None, 0),
            (True, 1),
            (7, 8),
            (3.14, 8),
            ("abcd", 4),
            (b"abc", 3),
            ((1, 2.0, "xy"), 18),
        ],
    )
    def test_payload_sizes(self, payload, expected):
        assert payload_size_bytes(payload) == expected

    def test_nested_tuples(self):
        assert payload_size_bytes(((1, 2), (3,))) == 24

    def test_unknown_type_gets_flat_charge(self):
        class Weird:
            pass

        assert payload_size_bytes(Weird()) == 32

    def test_object_with_size_bytes_hook(self):
        class Sized:
            def size_bytes(self):
                return 100

        assert payload_size_bytes(Sized()) == 100

    def test_event_size_includes_header(self):
        event = make_event(payload=(1, 2))
        assert event.size_bytes() == EVENT_HEADER_BYTES + 16


class TestValueSemantics:
    """Event is a plain ``__slots__`` class; these pin the value behaviour
    the frozen dataclass used to generate."""

    FIELDS = dict(sender=3, receiver=4, send_time=1.5, recv_time=2.5,
                  payload=("job", 7), serial=11, sign=1)

    def test_equality_and_hash_cover_the_seven_public_fields(self):
        base = Event(**self.FIELDS)
        assert base == Event(**self.FIELDS)
        assert hash(base) == hash(Event(**self.FIELDS))
        for name, other in [("sender", 9), ("receiver", 9), ("send_time", 0.5),
                            ("recv_time", 9.5), ("payload", ("job", 8)),
                            ("serial", 12), ("sign", -1)]:
            assert base != Event(**{**self.FIELDS, name: other}), name

    def test_derived_fields_are_not_part_of_the_value(self):
        sized, fresh = Event(**self.FIELDS), Event(**self.FIELDS)
        assert sized.size_bytes() == EVENT_HEADER_BYTES + 11
        assert sized == fresh and hash(sized) == hash(fresh)
        assert pickle.dumps(sized) == pickle.dumps(fresh)

    def test_not_equal_to_other_types(self):
        event = Event(**self.FIELDS)
        assert event != tuple(self.FIELDS.values())
        assert event != "event"

    def test_repr_names_the_public_fields_only(self):
        assert repr(Event(**self.FIELDS)) == (
            "Event(sender=3, receiver=4, send_time=1.5, recv_time=2.5, "
            "payload=('job', 7), serial=11, sign=1)"
        )

    def test_pickle_round_trip_rebuilds_key_and_identity(self):
        event = Event(**self.FIELDS)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert clone.key() == EventKey(2.5, 4, 3, 1.5, 11)
        assert type(clone.key()) is EventKey and type(clone.event_id()) is EventId
        assert clone.event_id() == EventId(3, 11)

    def test_equal_time_events_order_by_the_rest_of_the_key(self):
        events = [
            make_event(recv_time=5.0, receiver=r, sender=s, send_time=t, serial=n)
            for r, s, t, n in [(2, 0, 0.0, 0), (1, 2, 0.0, 0), (1, 1, 2.0, 0),
                               (1, 1, 1.0, 9), (1, 1, 1.0, 3)]
        ]
        ordered = sorted(events, key=Event.key)
        assert [(e.receiver, e.sender, e.send_time, e.serial) for e in ordered] == [
            (1, 1, 1.0, 3), (1, 1, 1.0, 9), (1, 1, 2.0, 0), (1, 2, 0.0, 0), (2, 0, 0.0, 0)
        ]


class TestPayloadSizeTable:
    """The exact-type fast path must return what the isinstance chain did."""

    class Sized:
        def size_bytes(self):
            return 100

    class SizedTuple(tuple):
        def size_bytes(self):  # a tuple is sized as a tuple, hook or not
            return 1000

    class Name(str):
        pass

    @pytest.mark.parametrize(
        "payload,expected",
        [
            ((), 0),
            ((None,), 0),
            ((True, False), 2),
            ((1, 2.0), 16),
            (("ab", b"cde"), 5),
            ((1, (2, (3, "x"))), 25),
            ((1, None, True, 2.5, "s", b"b", (4,)), 8 + 0 + 1 + 8 + 1 + 1 + 8),
            ((Sized(), 1), 108),
            (SizedTuple((1, 2)), 16),
            (Name("abc"), 3),
            ((Name("abc"), object()), 35),
            (2**70, 8),
            (frozenset({1}), 32),
        ],
    )
    def test_sizes(self, payload, expected):
        assert payload_size_bytes(payload) == expected
