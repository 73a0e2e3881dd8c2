"""The parent's driver of Mattern's coordinator star over worker processes.

The protocol — colouring, the :class:`~repro.gvt.mattern.GvtStart` /
:class:`~repro.gvt.mattern.ShardReport` / :class:`~repro.gvt.mattern.GvtCommit`
records and the white-balance test of :func:`~repro.gvt.mattern.close_pass`
— is :mod:`repro.gvt.mattern`, where the modelled executive drives the
same star over its modelled network.  This driver adds what real
processes need: the worker queues, a deadline per round, dead-worker
detection, and elastic membership, whose retired workers' lifetime
totals enter the white balance as constants.  Each report is a
consistent local cut (the worker composes it atomically between queue
operations); an unbalanced pass means whites were still in an OS pipe,
so the coordinator sleeps briefly and runs another pass of the same
round with fresh totals.

Termination detection rides on the same machinery: a successful pass in
which every shard is inactive (no executable events below the horizon,
no buffered aggregates, no live comparison entries) *and* nobody sent a
message during the round proves global quiescence — the lifetime
sent/received totals necessarily balance — so the coordinator can stop
the fleet and certify the wire empty.
"""

from __future__ import annotations

import queue as queue_mod
import time
from multiprocessing import connection

from ..gvt.mattern import GvtStart, RoundResult, ShardReport, close_pass
from .ipc import ShardError

#: back-off between passes of one round while whites drain, seconds
PASS_SLEEP_S = 0.001


class WorkerFailedError(RuntimeError):
    """A worker process crashed or a GVT round stalled past the timeout."""


class GvtCoordinator:
    """Drives Mattern rounds over the worker fleet from the parent; every
    coordinator phase talks to the fleet through :meth:`broadcast` and
    :meth:`collect`."""

    def __init__(
        self, inboxes, report_queue, *,
        timeout_s: float = 120.0, active=None, processes=None,
    ) -> None:
        self._inboxes = list(inboxes)
        self._reports = report_queue
        self._timeout_s = timeout_s
        #: shard -> ``Process`` (the backend's live dict), read only to
        #: tell a dead worker from a slow one
        self._processes = processes if processes is not None else {}
        self._round = 0
        self.rounds_completed = 0
        self.passes_total = 0
        #: shards currently participating in rounds; the elastic driver
        #: grows it on join and shrinks it on retire
        self.active: set[int] = (
            set(range(len(self._inboxes))) if active is None else set(active)
        )
        #: lifetime wire totals of retired workers: their sends were all
        #: received and their receipts all counted, but they no longer
        #: report, so the white balance needs these correction terms
        self.retired_sent = 0
        self.retired_received = 0

    # -- elastic membership -------------------------------------------- #
    def add_worker(self, shard: int) -> None:
        """A joiner (pre-provisioned inbox) starts taking rounds."""
        if not 0 <= shard < len(self._inboxes):
            raise WorkerFailedError(f"no pre-provisioned inbox for {shard}")
        self.active.add(shard)

    def retire_worker(
        self, shard: int, total_sent: int, total_received: int
    ) -> None:
        """A drained leaver stops taking rounds; fold its lifetime wire
        totals into the balance-correction terms."""
        self.active.discard(shard)
        self.retired_sent += total_sent
        self.retired_received += total_received

    def broadcast(self, message) -> None:
        """Put ``message`` in every active worker's inbox."""
        for shard in sorted(self.active):
            self._inboxes[shard].put(message)

    def collect(
        self, kind, expected, phase: str, *, match=None, deadline=None
    ) -> dict:
        """One ``kind`` record (satisfying ``match``) per ``expected`` shard.

        The one wait on the report queue.  A :class:`ShardError`, a dead
        shard or a silent one ends it in a :class:`WorkerFailedError`
        naming ``phase``; anything else (a stale report, a record of
        another kind) is dropped — the protocol is lockstep per kind.
        Every active shard is watched, not only the expected ones: one
        that reported and then died is dead too, though a worker that
        exits 0 after its ``ShardDone`` is not.
        """
        expected = set(expected)
        if deadline is None:
            deadline = time.monotonic() + self._timeout_s
        got: dict[int, object] = {}
        #: the queue's pipe (None over a plain in-process queue)
        reader = getattr(self._reports, "_reader", None)
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerFailedError(
                    f"{phase} stalled: no {kind.__name__} from "
                    f"shard(s) {sorted(expected)} within {self._timeout_s:g}s"
                )
            tick = min(remaining, 1.0)
            try:
                if reader is None:
                    message = self._reports.get(timeout=tick)
                else:
                    # a record, or the death of a shard still running
                    connection.wait(
                        [reader] + [
                            process.sentinel
                            for shard, process in self._processes.items()
                            if shard in expected
                            or (shard in self.active and process.exitcode is None)
                        ],
                        tick,
                    )
                    message = self._get_nowait(reader)
            except queue_mod.Empty:
                # Only on a silent wake: a traceback queued before dying
                # wins.  Only active shards: retired leavers are exempt.
                dead = [
                    process for shard, process in sorted(self._processes.items())
                    if shard in self.active and not process.is_alive()
                    and (shard in expected or process.exitcode)
                ]
                if not dead:
                    continue
                try:  # last words written between the tick and the check
                    message = self._get_nowait(reader)
                except queue_mod.Empty:
                    raise WorkerFailedError(
                        f"{dead[0].name} died during {phase} (exit code "
                        f"{dead[0].exitcode})"
                    ) from None
            if isinstance(message, ShardError):
                raise WorkerFailedError(
                    f"shard {message.shard} crashed during {phase}:\n"
                    f"{message.error}"
                )
            if (
                isinstance(message, kind)
                and message.shard in expected
                and (match is None or match(message))
            ):
                got[message.shard] = message
                expected.discard(message.shard)
        return got

    def _get_nowait(self, reader):
        """The next report, or :class:`queue.Empty` if none is readable.
        Over the worker fleet the reports come through a ``SimpleQueue``
        (``reader`` is its pipe), which has no ``get_nowait``."""
        if reader is None:
            return self._reports.get_nowait()
        if not reader.poll(0):
            raise queue_mod.Empty
        return self._reports.get()

    def run_round(
        self, phase: str | None = None, *, deadline: float | None = None
    ) -> RoundResult:
        """One full round: pass until :func:`close_pass` finds the white
        counts balanced, retired workers' totals included.  A round run
        inside a larger ``phase`` (an elastic epoch's drain) is named
        after it and shares its ``deadline``."""
        self._round += 1
        if deadline is None:
            deadline = time.monotonic() + self._timeout_s
        pass_no = 0
        while True:
            pass_no += 1
            self.passes_total += 1
            start = GvtStart(self._round, pass_no)
            self.broadcast(start)
            label = f"GVT round {self._round} pass {pass_no}"
            got = self.collect(
                ShardReport, self.active,
                label if phase is None else f"{phase} ({label})",
                match=lambda m: (m.round, m.pass_no) == (start.round, start.pass_no),
                deadline=deadline,
            )
            result = close_pass(
                start, got.values(), self.retired_sent, self.retired_received
            )
            if result is not None:
                self.rounds_completed += 1
                return result
            time.sleep(PASS_SLEEP_S)  # whites still in a pipe; retry
