"""Mattern's distributed GVT: one coordinator star, driven twice.

Implements Mattern's algorithm [Mattern 93] with round-numbered message
colouring:

* every application physical message is stamped with its sender's current
  round number (its "colour");
* a message is *white* for round ``r`` if it was stamped with a round
  ``< r`` — i.e. sent before its sender learned of round ``r`` — and *red*
  otherwise;
* each pass of round ``r`` the coordinator sends :class:`GvtStart` to
  every participant, which enters the round (so every later send is red)
  and answers with a :class:`ShardReport`, a consistent cut of its white
  counts, local minimum and red send minimum;
* :func:`close_pass` decides the pass: ``Σ white_sent == Σ white_received``
  proves every white message has been received *and reflected in its
  receiver's report*, so ``min over reports of min(local_min, red_min)``
  is a safe GVT bound, which the coordinator announces with
  :class:`GvtCommit`.  Unbalanced counts mean whites were still in flight;
  the coordinator opens another pass of the same round with fresh totals.

The participant is the LP, on both backends: the colour rides the
message (``PhysicalMessage.colour``), the LP's send and receive paths
count it in its :class:`ColourAgent` (``lp.agent``), and
:meth:`~repro.kernel.lp.LogicalProcess.gvt_cut` takes its cut.  Two
drivers run the coordinator:

* :class:`MatternGVT` runs it over the modelled network with LP 0 as
  coordinator.  ``GvtStart`` and ``ShardReport`` travel as ``GVT_TOKEN``
  control messages and ``GvtCommit`` as ``GVT_BROADCAST``; they bypass
  aggregation but pay full per-message cost — GVT is not free, which is
  why its period is worth an ablation, see
  ``benchmarks/bench_abl_gvt_period.py``;
* :class:`~repro.parallel.gvt.GvtCoordinator` runs it from the parent
  process over the worker queues, with timeouts and elastic membership.

A cut's ``local_min`` is :meth:`~repro.kernel.lp.LogicalProcess.
local_min`: one read of the LP's pending-heap head, the same scan the
omniscient algorithm makes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

from ..comm.message import MessageKind, PhysicalMessage
from ..kernel.event import VirtualTime
from .manager import note_estimate, true_global_minimum

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.executive import Executive


@dataclass(frozen=True, slots=True)
class GvtStart:
    """Coordinator opens one pass of a Mattern round."""

    round: int
    pass_no: int


@dataclass(frozen=True, slots=True)
class GvtCommit:
    """Coordinator announces a new safe GVT bound."""

    round: int
    gvt: float


@dataclass(frozen=True, slots=True)
class ShardReport:
    """One participant's consistent cut snapshot for one (round, pass)."""

    shard: int
    round: int
    pass_no: int
    #: lower bound on virtual times this shard can still affect locally
    local_min: float
    #: messages sent before the shard entered this round
    white_sent: int
    #: received messages stamped with an older round
    white_received: int
    #: min event time among messages sent during this round
    red_min: float
    #: messages sent during this round (0 on a quiescent shard)
    red_sent: int
    #: executable/buffered work remains on this shard
    active: bool
    #: lifetime physical-message totals (for the Stop broadcast)
    total_sent: int
    total_received: int
    #: per-object load sample ((oid, events_committed), ...), present
    #: when ``placement="dynamic"`` (the coordinator's balancer reads it)
    loads: tuple[tuple[int, int], ...] | None = None


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


def close_pass(
    start: GvtStart, reports: Iterable[ShardReport],
    retired_sent: int = 0, retired_received: int = 0,
) -> RoundResult | None:
    """Decide one pass: a :class:`RoundResult` when the white counts
    balance, ``None`` while whites are still in flight.

    With retirements, validity becomes ``Σ white_sent + retired_sent ==
    Σ white_received + retired_received`` over the reporting set: retired
    participants' whites are final (the elastic epoch's drain rounds
    proved their wire empty at retirement) and enter as constants.
    """
    reports = tuple(sorted(reports, key=attrgetter("shard")))
    white_sent = retired_sent + sum(r.white_sent for r in reports)
    white_received = retired_received + sum(r.white_received for r in reports)
    if white_sent != white_received:
        return None
    return RoundResult(
        round=start.round,
        passes=start.pass_no,
        gvt=min(min(r.local_min, r.red_min) for r in reports),
        all_quiet=all(not r.active and r.red_sent == 0 for r in reports),
        reports=reports,
        retired_sent=retired_sent,
        retired_received=retired_received,
    )


class ColourAgent:
    """Per-participant colouring and counting state: one per LP, under
    :class:`MatternGVT` and on every worker of the process backend.  Its
    lifetime totals are also the process backend's wire totals.
    """

    __slots__ = (
        "round", "sent_before_round", "total_sent", "total_received",
        "recv_by_stamp", "red_min",
    )

    def __init__(self) -> None:
        self.round = 0
        #: total messages sent before entering the current round
        self.sent_before_round = 0
        self.total_sent = 0
        self.total_received = 0
        #: received-message counts keyed by the sender's stamp
        self.recv_by_stamp: defaultdict[int, int] = defaultdict(int)
        #: min event time among messages sent in the current round
        self.red_min: float = float("inf")

    def enter_round(self, round_number: int) -> None:
        if round_number > self.round:
            self.round = round_number
            self.sent_before_round = self.total_sent
            self.red_min = float("inf")

    def note_send(self, min_event_time: VirtualTime | None) -> int:
        """Record a send; returns the colour to stamp on the message."""
        self.total_sent += 1
        if min_event_time is not None and min_event_time < self.red_min:
            self.red_min = min_event_time
        return self.round

    def note_receive(self, stamp: int) -> None:
        self.total_received += 1
        self.recv_by_stamp[stamp] += 1

    def white_sent(self) -> int:
        return self.sent_before_round

    def white_received(self) -> int:
        return sum(n for stamp, n in self.recv_by_stamp.items() if stamp < self.round)

    def red_sent(self) -> int:
        """Messages sent since entering the current round."""
        return self.total_sent - self.sent_before_round

    def report(
        self, shard: int, start: GvtStart, local_min: float, active: bool,
        loads: tuple[tuple[int, int], ...] | None = None,
    ) -> ShardReport:
        """This participant's cut for ``start``'s pass (round entered)."""
        return ShardReport(
            shard=shard,
            round=start.round,
            pass_no=start.pass_no,
            local_min=local_min,
            white_sent=self.white_sent(),
            white_received=self.white_received(),
            red_min=self.red_min,
            red_sent=self.red_sent(),
            active=active,
            total_sent=self.total_sent,
            total_received=self.total_received,
            loads=loads,
        )


class MatternGVT:
    """The star on the modelled network, LP 0 coordinating."""

    def __init__(self, executive: "Executive") -> None:
        self._executive = executive
        self.gvt: VirtualTime = 0.0
        for lp in executive.lps:
            lp.agent = ColourAgent()
        self._round = 0
        #: the open pass (None between rounds) and its reports so far
        self._start: GvtStart | None = None
        self._reports: dict[int, ShardReport] = {}
        self.rounds_completed = 0
        self.passes = 0

    # ------------------------------------------------------------------ #
    # executive interface
    # ------------------------------------------------------------------ #
    @property
    def round_active(self) -> bool:
        return self._start is not None

    def start_round(self) -> None:
        if self._start is not None:
            return  # previous round still draining; skip this tick
        executive = self._executive
        if len(executive.lps) < 2:
            # Degenerate single-LP star: the local bound is the truth.
            self._commit(true_global_minimum(executive))
            return
        self._round += 1
        self._open_pass(1)

    def handle_control(self, message: PhysicalMessage) -> None:
        control = message.control
        if isinstance(control, GvtStart):
            self._report(message.dst_lp, control)
        elif isinstance(control, ShardReport):
            self._collect(control)
        elif isinstance(control, GvtCommit):
            lp = self._executive.lps[message.dst_lp]
            lp.agent.enter_round(control.round)
            lp.charge(lp.costs.gvt_participation_cost)
            lp.fossil_collect(control.gvt)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown GVT control payload: {control!r}")

    # ------------------------------------------------------------------ #
    # the star
    # ------------------------------------------------------------------ #
    def _open_pass(self, pass_no: int) -> None:
        start = self._start = GvtStart(self._round, pass_no)
        self._reports = {}
        self.passes += 1
        self._broadcast(MessageKind.GVT_TOKEN, start)
        self._report(0, start)  # the coordinator's own cut, taken inline

    def _broadcast(self, kind: MessageKind, record: object) -> None:
        """Send ``record`` from the coordinator to every other LP."""
        comm = self._executive.lps[0].comm
        for dst in range(1, len(self._executive.lps)):
            comm.send_control(dst, kind, record)

    def _report(self, lp_id: int, start: GvtStart) -> None:
        lp = self._executive.lps[lp_id]
        report = lp.gvt_cut(start)
        if lp_id == 0:
            self._collect(report)
        else:
            lp.comm.send_control(0, MessageKind.GVT_TOKEN, report)

    def _collect(self, report: ShardReport) -> None:
        # Every report is the open pass's: the kernel sees each control
        # message once, and a pass closes only on all N of its reports.
        start = self._start
        reports = self._reports
        reports[report.shard] = report
        if len(reports) < len(self._executive.lps):
            return
        result = close_pass(start, reports.values())
        if result is None:
            # Whites still in flight: another pass with fresh totals.
            self._open_pass(start.pass_no + 1)
            return
        self._start = None
        self.rounds_completed += 1
        self._broadcast(
            MessageKind.GVT_BROADCAST, GvtCommit(start.round, result.gvt)
        )
        self._commit(result.gvt)

    def _commit(self, estimate: VirtualTime) -> None:
        executive = self._executive
        note_estimate(
            executive.oracle, executive.tracer, executive.wallclock,
            "mattern", estimate, self.gvt, executive.executed_events,
        )
        if estimate > self.gvt:
            self.gvt = estimate
            # The coordinator collects immediately; the other LPs collect
            # when their GvtCommit arrives.
            executive.lps[0].fossil_collect(estimate)
            executive.on_new_gvt(estimate)
