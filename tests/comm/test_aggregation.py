"""Unit tests for aggregation buffers and static policies."""

import pytest

from repro.comm.aggregation import AggregateBuffer, FixedWindow, NoAggregation
from repro.kernel.errors import ConfigurationError
from tests.helpers import make_event


class TestPolicies:
    def test_no_aggregation_window_is_zero(self):
        policy = NoAggregation()
        assert policy.initial_window() == 0.0
        assert policy.next_window(5, 100.0, 0.0) == 0.0

    def test_fixed_window_is_constant(self):
        policy = FixedWindow(250.0)
        assert policy.initial_window() == 250.0
        assert policy.next_window(50, 999.0, 250.0) == 250.0

    def test_fixed_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FixedWindow(0.0)


class TestAggregateBuffer:
    def test_age_tracks_first_event(self):
        buf = AggregateBuffer(dst_lp=1)
        buf.open(100.0)
        buf.append(make_event())
        assert buf.age(150.0) == 50.0

    def test_take_empties_and_bumps_generation(self):
        buf = AggregateBuffer(dst_lp=1)
        buf.append(make_event(serial=1))
        buf.append(make_event(serial=2))
        gen = buf.generation
        events = buf.take()
        assert len(events) == 2
        assert len(buf) == 0
        assert buf.generation == gen + 1

    def test_annihilate_buffered_positive(self):
        buf = AggregateBuffer(dst_lp=1)
        event = make_event(serial=5)
        buf.append(make_event(serial=4))
        buf.append(event)
        assert buf.try_annihilate(event.anti_message())
        assert len(buf) == 1

    def test_annihilate_misses_unknown_id(self):
        buf = AggregateBuffer(dst_lp=1)
        buf.append(make_event(serial=4))
        assert not buf.try_annihilate(make_event(serial=9).anti_message())
        assert len(buf) == 1

    def test_annihilate_matches_newest_first(self):
        # Two positives with the same id cannot exist; but annihilation
        # scans newest-first so the common case (cancel what was just
        # queued) is O(1).
        buf = AggregateBuffer(dst_lp=1)
        target = make_event(serial=7)
        buf.append(target)
        assert buf.try_annihilate(target.anti_message())
        assert len(buf) == 0

    def test_min_event_time(self):
        buf = AggregateBuffer(dst_lp=1)
        assert buf.min_event_time() is None
        buf.append(make_event(recv_time=30.0))
        buf.append(make_event(recv_time=10.0, serial=1))
        assert buf.min_event_time() == 10.0
