"""Unit tests for the modelled Ethernet network."""

import pytest

from repro.cluster.costmodel import CostModel, NetworkModel
from repro.comm.aggregation import NoAggregation
from repro.comm.message import MessageKind, PhysicalMessage
from repro.comm.network import CHANNEL_EPSILON, Network, _jitter_unit
from repro.comm.transport import CommModule
from repro.gvt.mattern import ColourAgent
from tests.helpers import TransportHost, make_event


def make_network(model=None, sink=None):
    deliveries = []

    def deliver(dst, arrival, msg):
        deliveries.append((dst, arrival, msg))
        if sink:
            sink(dst, arrival, msg)

    return Network(model or NetworkModel(), deliver), deliveries


def data_msg(src=0, dst=1, recv_time=10.0):
    return PhysicalMessage(src, dst, MessageKind.DATA,
                           events=(make_event(recv_time=recv_time),))


class TestLatency:
    def test_arrival_after_latency(self):
        model = NetworkModel(base_latency=100.0, per_byte=1.0)
        net, deliveries = make_network(model)
        msg = data_msg()
        arrival = net.send(msg, completion_clock=50.0)
        assert arrival == pytest.approx(50.0 + 100.0 + msg.size_bytes())
        assert deliveries[0][0] == 1

    def test_bigger_messages_take_longer(self):
        model = NetworkModel(per_byte=1.0)
        net, _ = make_network(model)
        small = net.send(data_msg(), 0.0)
        big_msg = PhysicalMessage(
            2, 3, MessageKind.DATA,
            events=tuple(make_event(serial=i, payload="x" * 50) for i in range(5)),
        )
        big = net.send(big_msg, 0.0)
        assert big > small

    def test_jitter_is_deterministic(self):
        model = NetworkModel(jitter=0.5)
        net1, _ = make_network(model)
        net2, _ = make_network(model)
        m1 = data_msg()
        m2 = PhysicalMessage(m1.src_lp, m1.dst_lp, MessageKind.DATA,
                             events=m1.events, serial=m1.serial)
        assert net1.send(m1, 0.0) == net2.send(m2, 0.0)

    def test_jitter_unit_range(self):
        for serial in range(200):
            assert -1.0 <= _jitter_unit(0, 1, serial) <= 1.0


class TestFIFO:
    def test_same_channel_never_reorders(self):
        # A later send with (jittered) lower latency must still arrive
        # after the earlier send on the same channel.
        model = NetworkModel(base_latency=100.0, per_byte=0.0, jitter=0.9)
        net, deliveries = make_network(model)
        for i in range(50):
            net.send(data_msg(src=0, dst=1), completion_clock=float(i))
        arrivals = [a for (_, a, _) in deliveries]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_distinct_channels_are_independent(self):
        net, deliveries = make_network(NetworkModel(base_latency=10.0))
        net.send(data_msg(src=0, dst=1), 0.0)
        net.send(data_msg(src=2, dst=1), 0.0)
        # both arrive at their own latency; no epsilon chaining needed
        assert abs(deliveries[0][1] - deliveries[1][1]) < CHANNEL_EPSILON * 10


class TestInFlightTracking:
    def test_in_flight_until_delivered(self):
        net, deliveries = make_network()
        msg = data_msg(recv_time=42.0)
        net.send(msg, 0.0)
        assert net.in_flight_count() == 1
        assert net.min_in_flight_time() == 42.0
        net.on_delivered(msg)
        assert net.in_flight_count() == 0
        assert net.min_in_flight_time() is None

    def test_min_over_multiple(self):
        net, _ = make_network()
        net.send(data_msg(recv_time=42.0), 0.0)
        net.send(data_msg(src=2, dst=3, recv_time=7.0), 0.0)
        assert net.min_in_flight_time() == 7.0

    def test_stats(self):
        # the wire counts messages for conservation; the traffic totals
        # are the sending host's
        net, deliveries = make_network()
        host = TransportHost()
        comm = CommModule(host, net, CostModel(), NoAggregation())
        comm.set_routing({1: 1})
        comm.enqueue(make_event(receiver=1))
        [(_dst, _at, msg)] = deliveries
        assert net.messages_sent == host.stats.physical_messages_sent == 1
        assert host.stats.physical_events_sent == 1
        assert host.stats.physical_bytes_sent == msg.size_bytes()

    def test_send_observer_sees_data_only(self):
        # the sender's colour agent counts DATA only: control traffic
        # (the GVT star's own records) is never coloured
        net, deliveries = make_network()
        host = TransportHost(agent=ColourAgent())
        host.agent.enter_round(3)
        comm = CommModule(host, net, CostModel(), NoAggregation())
        comm.set_routing({1: 1})
        comm.enqueue(make_event(receiver=1))
        comm.send_control(1, MessageKind.GVT_TOKEN, 1)
        assert host.agent.total_sent == 1
        # the host's ledger counts the DATA message only: control is
        # charged to the clock, not counted as wire traffic
        assert host.stats.physical_messages_sent == 1
        assert host.stats.physical_events_sent == 1
        data, control = (msg for _dst, _at, msg in deliveries)
        assert (data.kind, data.colour) == (MessageKind.DATA, 3)
        assert control.colour == 0


class TestCountedInFlightAccounting:
    """Regression: a duplicated/retransmitted copy re-enters the wire under
    the *same* serial.  The old dict-pop accounting removed the whole entry
    at the first delivery (losing the remaining copies from the GVT floor)
    and let a stray extra delivery double-decrement."""

    def test_second_copy_of_one_serial_keeps_the_gvt_floor(self):
        net, _ = make_network()
        msg = data_msg(recv_time=42.0)
        net._track(msg)
        net._track(msg)  # a duplicate copy, same serial
        assert net.in_flight_count() == 2
        assert net.on_delivered(msg)
        # one copy still on the wire: it must still bound GVT
        assert net.in_flight_count() == 1
        assert net.min_in_flight_time() == 42.0
        assert net.on_delivered(msg)
        assert net.in_flight_count() == 0
        assert net.min_in_flight_time() is None

    def test_over_delivery_is_rejected_not_double_counted(self):
        net, _ = make_network()
        msg = data_msg()
        net.send(msg, 0.0)
        assert net.on_delivered(msg)
        assert not net.on_delivered(msg)  # no KeyError, no going negative
        assert net.in_flight_count() == 0
        assert net.delivered_count == 1

    def test_delivery_of_untracked_message_is_rejected(self):
        net, _ = make_network()
        assert not net.on_delivered(data_msg())
        assert net.delivered_count == 0

    def test_wire_counts_conserve_through_duplication(self):
        net, _ = make_network()
        msg = data_msg()
        net.send(msg, 0.0)  # sent + tracked
        net._track(msg)  # duplicate copy enters the wire
        counts = net.wire_counts()
        assert counts["in_flight"] == 2
        net.on_delivered(msg)
        net.on_delivered(msg)
        counts = net.wire_counts()
        assert counts["sent"] == 1
        assert counts["delivered"] == 2
        assert counts["in_flight"] == 0


class TestChannelEpsilonEdgeCases:
    """Zero-size control traffic racing DATA on one channel: per-channel
    FIFO must stay strict even when the later message's latency is lower."""

    def _control(self, src=0, dst=1):
        return PhysicalMessage(src, dst, MessageKind.GVT_TOKEN, control=1)

    def test_zero_size_control_cannot_overtake_data(self):
        # DATA pays per-byte latency; the control message sent immediately
        # after would arrive earlier on raw latency alone.
        model = NetworkModel(base_latency=10.0, per_byte=5.0, jitter=0.0)
        net, deliveries = make_network(model)
        net.send(data_msg(), completion_clock=0.0)
        net.send(self._control(), completion_clock=0.0)
        (_, data_arrival, data), (_, ctrl_arrival, ctrl) = deliveries
        assert data.kind is MessageKind.DATA
        assert ctrl.kind is MessageKind.GVT_TOKEN
        assert ctrl_arrival == pytest.approx(data_arrival + CHANNEL_EPSILON)

    def test_back_to_back_controls_space_by_epsilon(self):
        model = NetworkModel(base_latency=10.0, per_byte=0.0, jitter=0.0)
        net, deliveries = make_network(model)
        for _ in range(4):
            net.send(self._control(), completion_clock=0.0)
        arrivals = [a for (_, a, _) in deliveries]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        for a, b in zip(arrivals, arrivals[1:]):
            assert b == pytest.approx(a + CHANNEL_EPSILON)

    def test_other_channel_is_not_clamped(self):
        model = NetworkModel(base_latency=10.0, per_byte=5.0, jitter=0.0)
        net, deliveries = make_network(model)
        net.send(data_msg(src=0, dst=1), completion_clock=0.0)
        net.send(self._control(src=2, dst=1), completion_clock=0.0)
        (_, data_arrival, _), (_, ctrl_arrival, _) = deliveries
        # different (src, dst) channel: the control's lower latency wins
        assert ctrl_arrival < data_arrival

    def test_data_after_control_still_fifo(self):
        model = NetworkModel(base_latency=10.0, per_byte=0.0, jitter=0.9)
        net, deliveries = make_network(model)
        kinds = []
        for i in range(20):
            if i % 3 == 0:
                net.send(self._control(), completion_clock=float(i) * 0.01)
            else:
                net.send(data_msg(), completion_clock=float(i) * 0.01)
            kinds.append(deliveries[-1][2].kind)
        arrivals = [a for (_, a, _) in deliveries]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
