"""Two-process regression tests for the shm ring (docs/parallel.md).

Every other ring test drives producer and consumer from one process,
which cannot see what these two exist for: a cursor published in more
than one store (``struct.pack_into`` zeroes its destination first, so a
concurrent reader loaded 0 in 10-20 % of reads and ``try_pop`` took
``head != tail`` for "a record is there"), and the byte-exact FIFO
contract under real concurrency with wraps, sliver skips and full-ring
backpressure all occurring.  Both run under this directory's SIGALRM
hang guard and bound their own waits.
"""

import multiprocessing
import os
import time

import pytest

from repro.parallel import shm as shm_mod
from repro.parallel.shm import shm_wire_supported

pytestmark = [
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the ring is inherited across fork",
    ),
    pytest.mark.skipif(
        not shm_wire_supported(),
        reason="shm wire requires x86-TSO store ordering",
    ),
    pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm on this host"
    ),
]

#: two cursor values that differ in both 32-bit halves, so a half-written
#: store is neither of them
TAIL_A = 0x0000_0011_0000_0100
TAIL_B = 0x0000_0022_0000_0200
HAMMER_LOADS = 1_000_000

STRESS_RECORDS = 300_000
#: mostly small records with a few near the 1000 B mark: in a 4 KiB ring
#: that mix wraps, leaves < 4 B slivers and fills the ring
STRESS_SIZES = (12, 13, 1000, 14, 64, 15, 333, 12, 21, 999, 16, 17, 130, 18, 19)
#: the consumer gives up if the ring stays empty this long
STALL_S = 30.0


def _forked(target, *args):
    child = multiprocessing.get_context("fork").Process(
        target=target, args=args, daemon=True
    )
    child.start()
    return child


def _publish_forever(ring):
    cursors, tail = ring._cursors, shm_mod._TAIL
    while True:
        cursors[tail] = TAIL_B
        cursors[tail] = TAIL_A


def test_cursor_publish_is_one_store(ring):
    """A concurrent reader only ever loads a value that was published."""
    cursors, tail = ring._cursors, shm_mod._TAIL
    cursors[tail] = TAIL_A
    child = _forked(_publish_forever, ring)
    try:
        seen = set()
        for _ in range(HAMMER_LOADS):
            seen.add(cursors[tail])
    finally:
        child.terminate()
        child.join(timeout=10.0)
    assert not child.is_alive()
    assert seen == {TAIL_A, TAIL_B}, sorted(hex(v) for v in seen)


def _record(seq: int) -> bytes:
    size = STRESS_SIZES[seq % len(STRESS_SIZES)]
    return seq.to_bytes(8, "little") + bytes([seq & 0xFF]) * (size - 8)


def _produce(ring, count):
    for seq in range(count):
        record = _record(seq)
        while not ring.try_push(record):
            time.sleep(0)  # full: let the consumer run


def test_two_process_stress_fifo_byte_exact(ring):
    child = _forked(_produce, ring, STRESS_RECORDS)
    try:
        seq = 0
        last_progress = time.monotonic()
        while seq < STRESS_RECORDS:
            record = ring.try_pop()
            if record is None:
                now = time.monotonic()
                assert now - last_progress < STALL_S, (
                    f"ring empty for {STALL_S}s at record {seq} "
                    f"(producer exit code {child.exitcode})"
                )
                time.sleep(0)
                continue
            if record != _record(seq):
                pytest.fail(
                    f"record {seq}: got {len(record)} B starting "
                    f"{record[:12].hex()}, want {len(_record(seq))} B "
                    f"starting {_record(seq)[:12].hex()}"
                )
            seq += 1
            if not seq & 0x3FF:
                last_progress = time.monotonic()
        child.join(timeout=10.0)
        assert child.exitcode == 0
        assert ring.empty
    finally:
        if child.is_alive():
            child.terminate()
            child.join(timeout=10.0)
