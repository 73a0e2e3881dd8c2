"""Unit tests for the per-LP comm module (aggregating transport)."""

import pytest

from repro.cluster.costmodel import CostModel, NetworkModel
from repro.comm.aggregation import FixedWindow, NoAggregation
from repro.comm.message import MessageKind
from repro.comm.network import Network
from repro.comm.transport import CommModule
from repro.core.aggregation_controller import SAAWPolicy
from tests.helpers import TransportHost, make_event


def make_comm(policy=None, routing=None):
    host = TransportHost()
    deliveries = []
    network = Network(NetworkModel(), lambda dst, at, msg: deliveries.append(msg))
    comm = CommModule(host, network, CostModel(), policy or NoAggregation())
    comm.set_routing(routing or {1: 1, 2: 2})
    return comm, host, deliveries


def remote_event(receiver=1, recv_time=10.0, serial=0, sign=1):
    e = make_event(receiver=receiver, recv_time=recv_time, serial=serial)
    return e if sign > 0 else e.anti_message()


class TestUnaggregated:
    def test_each_event_is_its_own_message(self):
        comm, host, deliveries = make_comm()
        comm.enqueue(remote_event(serial=0))
        comm.enqueue(remote_event(serial=1))
        assert len(deliveries) == 2
        assert all(m.event_count() == 1 for m in deliveries)
        assert host.stats.physical_messages_sent == 2
        assert host.stats.physical_events_sent == 2

    def test_send_charges_host(self):
        comm, host, _ = make_comm()
        comm.enqueue(remote_event())
        assert host.clock > 0


class TestFixedWindowAggregation:
    def test_buffers_until_flush(self):
        comm, host, deliveries = make_comm(FixedWindow(100.0))
        comm.enqueue(remote_event(serial=0))
        comm.enqueue(remote_event(serial=1))
        assert deliveries == []
        assert comm.buffered_event_count() == 2
        (dst, at, gen) = host.flushes[0]
        assert at == pytest.approx(100.0)
        comm.flush_due(dst, gen)
        assert len(deliveries) == 1
        assert deliveries[0].event_count() == 2

    def test_stale_flush_is_ignored(self):
        comm, host, deliveries = make_comm(FixedWindow(100.0))
        comm.enqueue(remote_event(serial=0))
        dst, _, gen = host.flushes[0]
        comm.flush_all()
        assert len(deliveries) == 1
        comm.enqueue(remote_event(serial=1))
        comm.flush_due(dst, gen)  # generation is stale now
        assert len(deliveries) == 1
        assert comm.buffered_event_count() == 1

    def test_per_destination_buffers(self):
        comm, host, deliveries = make_comm(FixedWindow(100.0))
        comm.enqueue(remote_event(receiver=1, serial=0))
        comm.enqueue(remote_event(receiver=2, serial=1))
        assert comm.buffered_event_count() == 2
        assert len(host.flushes) == 2
        comm.flush_all()
        assert {m.dst_lp for m in deliveries} == {1, 2}

    def test_full_buffer_flushes_early(self):
        comm, host, deliveries = make_comm(FixedWindow(1e9))
        for i in range(CommModule.MAX_AGGREGATE_EVENTS):
            comm.enqueue(remote_event(serial=i))
        assert len(deliveries) == 1
        assert deliveries[0].event_count() == CommModule.MAX_AGGREGATE_EVENTS

    def test_anti_annihilates_in_buffer(self):
        comm, host, deliveries = make_comm(FixedWindow(100.0))
        event = remote_event(serial=3)
        comm.enqueue(event)
        comm.enqueue(event.anti_message())
        assert comm.buffered_event_count() == 0
        assert comm.antis_annihilated_in_buffer == 1
        comm.flush_all()
        assert deliveries == []  # nothing left to send

    def test_anti_without_buffered_positive_is_queued(self):
        comm, host, deliveries = make_comm(FixedWindow(100.0))
        comm.enqueue(remote_event(serial=3).anti_message())
        assert comm.buffered_event_count() == 1

    def test_min_buffered_time(self):
        comm, _, _ = make_comm(FixedWindow(100.0))
        assert comm.min_buffered_time() is None
        comm.enqueue(remote_event(recv_time=50.0, serial=0))
        comm.enqueue(remote_event(recv_time=20.0, serial=1, receiver=2))
        assert comm.min_buffered_time() == 20.0


class TestSAAWIntegration:
    def test_window_adapts_on_send(self):
        policy = SAAWPolicy(initial_window_us=100.0, step=0.1)
        comm, host, _ = make_comm(policy)
        comm.enqueue(remote_event(serial=0))
        comm.flush_all()               # primes the rate
        host.clock += 10.0
        for i in range(1, 4):
            comm.enqueue(remote_event(serial=i))
        comm.flush_all()               # higher rate -> window grows
        assert comm.window > 100.0
        assert policy.last_verdict == "rate_rose"


class TestControlTraffic:
    def test_control_bypasses_aggregation(self):
        comm, host, deliveries = make_comm(FixedWindow(1000.0))
        comm.send_control(2, MessageKind.GVT_TOKEN, {"round": 1})
        assert len(deliveries) == 1
        assert deliveries[0].kind is MessageKind.GVT_TOKEN
        assert comm.buffered_event_count() == 0
