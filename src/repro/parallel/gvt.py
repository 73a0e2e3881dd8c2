"""Coordinator-side Mattern GVT across worker processes.

This extends the modelled-network :class:`~repro.gvt.mattern.MatternGVT`
cut semantics to real inter-process transient messages.  The colouring
invariant is identical — a message is *white* for round ``r`` when its
carried stamp is ``< r`` and *red* otherwise — but the topology is a
coordinator star instead of a token ring: every pass the coordinator
broadcasts :class:`~repro.parallel.ipc.GvtStart` and collects one
:class:`~repro.parallel.ipc.ShardReport` per shard, each a consistent
local cut snapshot (the worker composes it atomically between queue
operations).  The pass succeeds when the global white counts balance —
``Σ white_sent == Σ white_received`` proves every message sent before the
round is out of the queues and reflected in a report — and then

    GVT = min over shards of min(local_min, red_min)

is a safe bound, exactly as in the token-ring derivation.  Unbalanced
counts mean whites were still in an OS pipe; the coordinator sleeps
briefly and runs another pass of the same round with fresh totals.

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
from dataclasses import dataclass
from multiprocessing import connection

from .ipc import GvtStart, ShardError, ShardReport

#: back-off between passes of one round while whites drain, seconds
PASS_SLEEP_S = 0.001


class WorkerFailedError(RuntimeError):
    """A worker process crashed or a GVT round stalled past the timeout."""


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one completed (count-balanced) GVT round."""

    round: int
    passes: int
    gvt: float
    #: every shard idle and silent this round: global quiescence
    all_quiet: bool
    reports: tuple[ShardReport, ...]
    #: lifetime wire totals of workers retired before this round (their
    #: messages are all delivered, but they no longer report)
    retired_sent: int = 0
    retired_received: int = 0

    @property
    def total_sent(self) -> int:
        return self.retired_sent + sum(r.total_sent for r in self.reports)

    @property
    def total_received(self) -> int:
        return self.retired_received + sum(
            r.total_received for r in self.reports
        )

    @property
    def any_active(self) -> bool:
        return any(r.active for r in self.reports)


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
        naming ``phase``; anything else (an ack from an abandoned probe, a
        stale report) is dropped — the protocol is lockstep per kind.
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
                    # a record, or the death of a shard we are waiting on
                    connection.wait(
                        [reader] + [
                            process.sentinel
                            for shard, process in self._processes.items()
                            if shard in expected
                        ],
                        tick,
                    )
                    message = self._reports.get_nowait()
            except queue_mod.Empty:
                # Only on a silent wake: a traceback queued before dying
                # wins.  Only expected shards: retired leavers are exempt.
                dead = [
                    process for shard, process in sorted(self._processes.items())
                    if shard in expected and not process.is_alive()
                ]
                if not dead:
                    continue
                try:  # last words written between the tick and the check
                    message = self._reports.get_nowait()
                except queue_mod.Empty:
                    raise WorkerFailedError(
                        f"{dead[0].name} died during {phase} (exit code "
                        f"{dead[0].exitcode}) without reporting"
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

    def run_round(self) -> RoundResult:
        """One full round: pass until the white counts balance.

        With retirements, round validity becomes
        ``sum(white_sent) + retired_sent ==
        sum(white_received) + retired_received`` over the active set:
        retired workers' whites are final (the drain barrier proved their
        wire empty at retirement) and enter as constants.
        """
        self._round += 1
        deadline = time.monotonic() + self._timeout_s
        pass_no = 0
        while True:
            pass_no += 1
            self.passes_total += 1
            self.broadcast(GvtStart(self._round, pass_no))
            cut = (self._round, pass_no)
            got = self.collect(
                ShardReport, self.active, f"GVT round {self._round} pass {pass_no}",
                match=lambda m: (m.round, m.pass_no) == cut, deadline=deadline,
            )
            reports = tuple(got[shard] for shard in sorted(got))
            white_sent = self.retired_sent + sum(
                r.white_sent for r in reports
            )
            white_received = self.retired_received + sum(
                r.white_received for r in reports
            )
            if white_sent == white_received:
                self.rounds_completed += 1
                gvt = min(min(r.local_min, r.red_min) for r in reports)
                all_quiet = all(
                    not r.active and r.red_sent == 0 for r in reports
                )
                return RoundResult(
                    round=self._round,
                    passes=pass_no,
                    gvt=gvt,
                    all_quiet=all_quiet,
                    reports=reports,
                    retired_sent=self.retired_sent,
                    retired_received=self.retired_received,
                )
            time.sleep(PASS_SLEEP_S)  # whites still in a pipe; retry
