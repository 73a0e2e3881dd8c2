"""Two-process tests of the idle shard's sleep-wakeup protocol.

An idle shard raises the waiting flag of every inbound ring, re-polls,
then blocks on its inbox pipe and its doorbell; a producer that sees the
flag after a push rings the doorbell with one ``os.write``
(docs/parallel.md, "Rings, doorbells, backpressure").  ``IDLE_WAIT_S``
is only the liveness backstop of that wait, so both tests take it away:
a wake-up lost to the flag / re-poll / block race then costs seconds per
hop, not 5 ms, and the directory's SIGALRM guard turns it into a failure.

The endpoints are real ``_ShardRuntime`` wait and send code over real
rings, a real :class:`~repro.parallel.shm.WakeBoard` and real
``multiprocessing`` inboxes; only the LP is missing.
"""

import multiprocessing
import os
import statistics
import time
import types
from collections import deque

import pytest

from repro.comm.message import MessageKind, PhysicalMessage
from repro.kernel.event import Event
from repro.parallel import worker as worker_mod
from repro.parallel.shm import ShmRing, WakeBoard, shm_wire_supported

pytestmark = [
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="rings and doorbells are inherited across fork",
    ),
    pytest.mark.skipif(
        not shm_wire_supported(),
        reason="shm wire requires x86-TSO store ordering",
    ),
    pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this host"
    ),
]

ROUND_TRIPS = 2_000
#: what one lost wake-up costs with the backstop out of the way; the
#: whole ping-pong takes under a second when none is lost
NO_BACKSTOP_S = 5.0
#: a full run may lose none; leave room for a slow, oversubscribed host
PING_PONG_CEILING_S = 60.0

LATENCY_HOPS = 50
#: the producer keeps computing this long after each push, as a shard
#: executing events does: a wake-up that needs the producer's GIL (an
#: ``mp.Queue`` feeder thread) cannot be delivered before it ends
BUSY_AFTER_PUSH_S = 0.003
HOP_CEILING_S = 0.001


class _Endpoint(worker_mod._ShardRuntime):
    """The wire half of one shard: its rings, its doorbell, its inbox."""

    def __init__(self, shard_id, rings, wakes, inbox):  # no LP to build
        self.shard_id = shard_id
        self.inbox = inbox
        self._inbox_ready = worker_mod.inbox_poll(inbox)
        self.out_queues = {}
        self._wakes = wakes
        self._rings_in = {
            src: ring for (src, dst), ring in rings.items() if dst == shard_id
        }
        self._rings_out = {
            dst: ring for (src, dst), ring in rings.items() if src == shard_id
        }
        self._pending = deque()
        self.agent = types.SimpleNamespace(total_sent=0, total_received=0)
        self._paused_epoch = None
        self._frames_sent = self._frames_received = 0
        self._ring_bytes_sent = self._wire_fallbacks = 0
        self._got = deque()

    def _handle(self, message):
        (physical,) = message.messages
        self._got.append(physical.events[0].payload)

    def post(self, dst, payload):
        event = Event(sender=0, receiver=1, send_time=0.0, recv_time=1.0,
                      payload=payload, serial=0, sign=1)
        message = PhysicalMessage(src_lp=self.shard_id, dst_lp=dst,
                                  kind=MessageKind.DATA, events=(event,))
        self._send_batch(dst, (message,))

    def recv(self):
        """Go idle, exactly as the worker loop does, until a frame lands."""
        while not self._got:
            self._wait_one()
        return self._got.popleft()


def _spin(seconds):
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


@pytest.fixture()
def wire(monkeypatch):
    """Two endpoints' worth of rings, doorbells and inboxes, backstop off."""
    monkeypatch.setattr(worker_mod, "IDLE_WAIT_S", NO_BACKSTOP_S)
    ctx = multiprocessing.get_context("fork")
    rings = {pair: ShmRing.create(1 << 12) for pair in ((0, 1), (1, 0))}
    wakes = WakeBoard(2)
    inboxes = [ctx.Queue(), ctx.Queue()]
    children = []

    def fork(target, *args):
        child = ctx.Process(
            target=target, args=(_Endpoint(1, rings, wakes, inboxes[1]), *args),
            daemon=True,
        )
        child.start()
        children.append(child)
        return child

    try:
        yield _Endpoint(0, rings, wakes, inboxes[0]), fork
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
            child.join(timeout=10.0)
        for ring in rings.values():
            ring.destroy()
        wakes.close()


def _echo(endpoint, count):
    for _ in range(count):
        payload = endpoint.recv()
        _spin(0.00005)  # busy before the push: the peer is blocked by now
        endpoint.post(0, payload)


def test_no_wakeup_is_lost_without_the_backstop(wire):
    endpoint, fork = wire
    child = fork(_echo, ROUND_TRIPS)
    started = time.monotonic()
    for seq in range(ROUND_TRIPS):
        _spin(0.00005)
        endpoint.post(1, seq)
        assert endpoint.recv() == seq
    elapsed = time.monotonic() - started
    child.join(timeout=10.0)
    assert child.exitcode == 0
    # every frame rode a ring and was announced by a doorbell, not a queue
    assert endpoint._frames_sent == endpoint._frames_received == ROUND_TRIPS
    assert endpoint._wire_fallbacks == 0
    assert elapsed < PING_PONG_CEILING_S, (
        f"{ROUND_TRIPS} round trips took {elapsed:.1f}s: at least one "
        f"wake-up was lost and waited out the {NO_BACKSTOP_S:g}s backstop"
    )


def _stamp_arrivals(endpoint, count):
    for _ in range(count):
        sent_ns = endpoint.recv()
        # CLOCK_MONOTONIC is one clock for every process of the host
        endpoint.post(0, time.perf_counter_ns() - sent_ns)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="on one core the hop waits for the busy producer's time slice",
)
def test_hop_latency_is_a_syscall_not_a_thread_switch(wire):
    """Median push -> handled latency into an idle consumer while the
    producer keeps computing.  One ``os.write`` on a pipe the consumer
    polls is tens of microseconds; a record on an ``mp.Queue`` waits for
    its feeder thread to win the producer's GIL, i.e. for the spin to end
    (70 us against 3.3 ms, EXPERIMENTS.md "Where the idle time went")."""
    endpoint, fork = wire
    child = fork(_stamp_arrivals, LATENCY_HOPS)
    hops = []
    for _ in range(LATENCY_HOPS):
        _spin(0.0005)  # let the consumer reach its blocking wait
        endpoint.post(1, time.perf_counter_ns())
        _spin(BUSY_AFTER_PUSH_S)
        hops.append(endpoint.recv() / 1e9)
    child.join(timeout=10.0)
    assert child.exitcode == 0
    median = statistics.median(hops)
    assert median < HOP_CEILING_S, (
        f"median hop {median * 1e6:.0f} us over {LATENCY_HOPS} hops "
        f"(max {max(hops) * 1e6:.0f} us)"
    )
