"""Hang guard for the process-sharded backend tests.

A fork()ed worker that deadlocks (e.g. a pipe both sides are waiting
on) would otherwise hang the whole suite until the CI-level timeout
with no hint of where it stuck.  Every test in this directory runs
under a SIGALRM watchdog that turns a hang into an ordinary failure
naming the test, so the rest of the suite still runs.
"""

import signal

import pytest

from repro.parallel.shm import ShmRing

#: generous per-test ceiling; the parallel suite normally finishes in
#: a few seconds, and ParallelSimulation's own stall timeout is 120 s
GUARD_SECONDS = 300


@pytest.fixture(autouse=True)
def parallel_hang_guard(request):
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def on_alarm(_signum, _frame):
        pytest.fail(
            f"{request.node.nodeid} exceeded {GUARD_SECONDS}s — a fork()ed "
            "worker process is likely hung (deadlocked pipe or dead "
            "coordinator); inspect leftover child processes before rerunning",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(GUARD_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def queue_wire(monkeypatch):
    """The fallback wire, reached as in production: the backend observes a
    machine without x86-TSO store ordering."""
    monkeypatch.setattr("repro.parallel.backend.shm_wire_supported", lambda: False)


@pytest.fixture()
def ring():
    """A small (4 KiB) shm ring, destroyed after the test."""
    r = ShmRing.create(1 << 12)
    yield r
    r.destroy()
