# FROZEN.  Every host timing this benchmark reports is a ratio to the
# wall time of run_probe(); any edit to this file rebases every number in
# every earlier baseline and is therefore its own benchmark PR, never a
# rider on another change.  It imports nothing from ``repro`` on purpose:
# a simulator speed-up must not speed the yardstick up with it.
"""The reference-second probe: a fixed pure-Python mini event loop.

The sandbox's cores change speed by tens of percent between blocks of a
few seconds (``time.process_time`` moves with the wall clock, so it is
frequency, not descheduling).  A rep timed between two probe runs is
reported in *reference seconds*::

    ref_s = wall_s * PROBE_REF_S / probe_wall_s

where ``probe_wall_s`` is the mean of the two bracketing probes.  The
probe does the kind of work the simulator does — heap pushes and pops of
tuple keys, dataclass event objects, one small state copy per event and
integer hashing — so interpreter-level speed changes move both alike.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

#: what one probe run costs on the reference host, seconds.  A constant
#: of the unit system (README.md; run.py prints it with every result), not
#: a tunable: changing it rescales every reported number.
PROBE_REF_S = 0.050

#: events one probe run executes; sized so a run takes ~PROBE_REF_S here
PROBE_EVENTS = 50_000

_OBJECTS = 16
_MASK = (1 << 31) - 1


@dataclass(slots=True)
class _ProbeEvent:
    recv_time: int
    receiver: int
    serial: int
    hop: int


def probe_work(n_events: int = PROBE_EVENTS) -> int:
    """Run the mini event loop; returns a checksum (consumed by callers
    so the loop cannot be skipped)."""
    lcg = 12345
    states = [[0, 0, 0, 0] for _ in range(_OBJECTS)]
    heap: list[tuple[tuple[int, int, int], _ProbeEvent]] = []
    serial = 0
    for receiver in range(_OBJECTS):
        event = _ProbeEvent(receiver + 1, receiver, serial, 0)
        heapq.heappush(heap, ((event.recv_time, receiver, serial), event))
        serial += 1
    checksum = 0
    for _ in range(n_events):
        _, event = heapq.heappop(heap)
        state = states[event.receiver]
        saved = state.copy()  # the per-event checkpoint
        state[0] += 1
        state[1] = event.recv_time
        lcg = (lcg * 1103515245 + 12345) & _MASK
        receiver = (lcg >> 8) % _OBJECTS
        delay = 1 + ((lcg >> 16) & 63)
        checksum = (checksum + saved[0] + receiver) & _MASK
        nxt = _ProbeEvent(event.recv_time + delay, receiver, serial, event.hop + 1)
        heapq.heappush(heap, ((nxt.recv_time, receiver, serial), nxt))
        serial += 1
    return checksum


def run_probe() -> float:
    """Wall seconds of one probe run."""
    started = time.perf_counter()
    checksum = probe_work()
    elapsed = time.perf_counter() - started
    if checksum < 0:  # pragma: no cover - keeps the result consumed
        raise AssertionError("probe checksum underflow")
    return elapsed
