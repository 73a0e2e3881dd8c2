"""Unit tests for the fault-injecting wire and its reliable transport."""

import heapq

import pytest

from repro.cluster.costmodel import NetworkModel
from repro.comm.message import MessageKind, PhysicalMessage
from repro.faults import FaultPlan, FaultRates, FaultyNetwork
from repro.gvt.mattern import ColourAgent
from repro.kernel.errors import TransportFailureError
from tests.helpers import make_event


class WireHarness:
    """Drives a FaultyNetwork the way the executive does: a time-ordered
    callback heap, with every delivery handed straight to its 'LP'."""

    def __init__(self, plan, model=None):
        self._heap = []
        self._tiebreak = 0
        self.deliveries = []  # (dst, arrival, message)
        self.net = FaultyNetwork(
            model or NetworkModel(),
            self._deliver,
            plan=plan,
            schedule_callback=self._schedule,
        )

    def _schedule(self, at, fn):
        heapq.heappush(self._heap, (at, self._tiebreak, fn))
        self._tiebreak += 1

    def _deliver(self, dst, arrival, message):
        self.deliveries.append((dst, arrival, message))
        self.net.on_delivered(message)

    def run(self, until=float("inf")):
        while self._heap and self._heap[0][0] <= until:
            at, _, fn = heapq.heappop(self._heap)
            fn(at)

    def delivered_serials(self):
        return [m.serial for (_, _, m) in self.deliveries]


def data_msg(src=0, dst=1, recv_time=10.0):
    return PhysicalMessage(src, dst, MessageKind.DATA,
                           events=(make_event(recv_time=recv_time),))


def conservation_holds(net):
    counts = net.wire_counts()
    return counts["sent"] == (
        counts["delivered"] + counts["lost"] + counts["in_flight"]
    )


class TestCleanReliable:
    def test_delivery_clears_pending_via_acks(self):
        wire = WireHarness(FaultPlan())
        sent = [data_msg() for _ in range(5)]
        for i, msg in enumerate(sent):
            wire.net.send(msg, completion_clock=float(i))
        wire.run()
        assert wire.delivered_serials() == [m.serial for m in sent]
        assert wire.net.unacked_count() == 0
        assert wire.net.in_flight_count() == 0
        assert wire.net.undelivered_data_count() == 0
        assert wire.net.counters.acks_sent > 0
        assert conservation_holds(wire.net)

    def test_stale_retransmit_timers_are_noops(self):
        wire = WireHarness(FaultPlan())
        wire.net.send(data_msg(), 0.0)
        wire.run()  # drains arrivals, acks, and the armed timers
        assert wire.net.counters.retransmissions == 0

    def test_logical_send_counted_once(self):
        # every copy is duplicated, yet each colour agent counts the
        # logical message once: colouring counts messages, not copies
        wire = WireHarness(FaultPlan(rates=FaultRates(duplicate=1.0)))
        sender, receiver = ColourAgent(), ColourAgent()
        msg = data_msg()
        msg.colour = sender.note_send(msg.min_event_time())
        wire.net.send(msg, 0.0)
        wire.run()
        for _dst, _at, delivered in wire.deliveries:
            receiver.note_receive(delivered.colour)
        assert wire.net.counters.duplicates >= 1
        assert sender.total_sent == receiver.total_received == 1
        assert wire.net.messages_sent == 1


class TestDropWithRetransmission:
    def test_drops_are_recovered(self):
        # Fresh decisions per attempt mean a 0.6 drop rate cannot starve
        # any message once the timer retransmits it.
        plan = FaultPlan(seed=4, rates=FaultRates(drop=0.6), rto=100.0)
        wire = WireHarness(plan)
        sent = [data_msg() for _ in range(10)]
        for i, msg in enumerate(sent):
            wire.net.send(msg, completion_clock=float(i))
        wire.run()
        assert wire.delivered_serials() == [m.serial for m in sent]
        assert wire.net.counters.drops > 0
        assert wire.net.counters.retransmissions > 0
        assert wire.net.lost_count == 0  # reliable: nothing permanently lost
        assert wire.net.unacked_count() == 0
        assert conservation_holds(wire.net)

    def test_black_hole_raises_after_max_retransmits(self):
        plan = FaultPlan(
            rates=FaultRates(drop=1.0), rto=10.0, max_retransmits=3
        )
        wire = WireHarness(plan)
        wire.net.send(data_msg(), 0.0)
        with pytest.raises(TransportFailureError, match="3 retransmissions"):
            wire.run()
        assert wire.net.counters.retransmissions == 3


class TestDropWithoutRetransmission:
    def test_drops_are_permanent_and_accounted(self):
        plan = FaultPlan(rates=FaultRates(drop=1.0), retransmit=False)
        wire = WireHarness(plan)
        for i in range(4):
            wire.net.send(data_msg(), completion_clock=float(i))
        wire.run()
        assert wire.deliveries == []
        assert wire.net.lost_count == 4
        assert wire.net.in_flight_count() == 0
        assert wire.net.undelivered_data_count() == 0
        assert conservation_holds(wire.net)

    def test_partial_loss_keeps_conservation(self):
        plan = FaultPlan(seed=8, rates=FaultRates(drop=0.5), retransmit=False)
        wire = WireHarness(plan)
        n = 40
        for i in range(n):
            wire.net.send(data_msg(), completion_clock=float(i))
        wire.run()
        assert 0 < wire.net.lost_count < n
        assert len(wire.deliveries) == n - wire.net.lost_count
        assert conservation_holds(wire.net)


class TestDuplicates:
    def test_duplicates_delivered_once(self):
        plan = FaultPlan(rates=FaultRates(duplicate=1.0))
        wire = WireHarness(plan)
        sent = [data_msg() for _ in range(6)]
        for i, msg in enumerate(sent):
            wire.net.send(msg, completion_clock=float(i))
        wire.run()
        assert wire.delivered_serials() == [m.serial for m in sent]
        assert wire.net.counters.duplicates == 6
        assert wire.net.counters.duplicate_deliveries_discarded >= 6
        assert conservation_holds(wire.net)

    def test_duplicates_suppressed_even_without_retransmission(self):
        plan = FaultPlan(rates=FaultRates(duplicate=1.0), retransmit=False)
        wire = WireHarness(plan)
        for i in range(6):
            wire.net.send(data_msg(), completion_clock=float(i))
        wire.run()
        assert len(wire.deliveries) == 6
        assert wire.net.counters.duplicate_deliveries_discarded == 6


def _reordering_seed(rate=0.9):
    """A seed whose plan reorders copy seq 0 but not seq 1 on (0, 1)."""
    for seed in range(200):
        plan = FaultPlan(seed=seed, rates=FaultRates(reorder=rate))
        first = plan.decide((0, 1), "data", 0)
        second = plan.decide((0, 1), "data", 1)
        if first.reorder and not (second.reorder or second.delay):
            return seed
    raise AssertionError("no reordering seed found")


class TestReordering:
    def test_reliable_transport_restores_fifo(self):
        plan = FaultPlan(seed=_reordering_seed(), rates=FaultRates(reorder=0.9))
        wire = WireHarness(plan)
        sent = [data_msg() for _ in range(8)]
        for i, msg in enumerate(sent):
            wire.net.send(msg, completion_clock=float(i))
        wire.run()
        assert wire.delivered_serials() == [m.serial for m in sent]
        arrivals = [a for (_, a, _) in wire.deliveries]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert conservation_holds(wire.net)

    def test_fire_and_forget_delivers_out_of_order(self):
        plan = FaultPlan(
            seed=_reordering_seed(),
            rates=FaultRates(reorder=0.9),
            retransmit=False,
        )
        wire = WireHarness(plan)
        first, second = data_msg(), data_msg()
        wire.net.send(first, 0.0)
        wire.net.send(second, 0.1)
        wire.run()
        # seq 0 is reordered (x5 latency), seq 1 is clean: it overtakes.
        assert wire.delivered_serials() == [second.serial, first.serial]


class TestAckFaults:
    def test_lost_acks_recovered_by_retransmission(self):
        plan = FaultPlan(
            seed=3,
            per_kind={"ack": FaultRates(drop=0.7)},
            rto=100.0,
        )
        wire = WireHarness(plan)
        sent = [data_msg() for _ in range(10)]
        for i, msg in enumerate(sent):
            wire.net.send(msg, completion_clock=float(i))
        wire.run()
        assert wire.delivered_serials() == [m.serial for m in sent]
        assert wire.net.counters.ack_drops > 0
        assert wire.net.unacked_count() == 0
        assert conservation_holds(wire.net)
