"""GVT management: the estimator protocol and the omniscient baseline.

Global Virtual Time is the floor of all virtual times the simulation can
still affect: unprocessed events, events on the wire or waiting in
aggregation buffers, and anti-messages that lazy cancellation may still
emit.  History below GVT is committed and fossil-collected.

Two estimators are provided:

* :class:`OmniscientGVT` — computes the exact bound from global executive
  state in one step.  It still charges each LP the per-round participation
  cost, so the *overhead* of GVT shows up in modelled time, but the value
  is exact.  This is the default for benchmarks (fast and deterministic).
* :class:`~repro.gvt.mattern.MatternGVT` — Mattern's coordinator star
  with message colouring, run through the modelled network like any other
  control traffic (the process backend drives the same star).  Produces a
  (safe) lower bound; used to show the kernel is a real distributed Time
  Warp and validated against the omniscient bound in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from ..comm.message import PhysicalMessage
from ..kernel.event import VirtualTime

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.executive import Executive


class GVTAlgorithm(Protocol):
    """What the executive needs from a GVT estimator."""

    #: latest committed estimate
    gvt: VirtualTime

    def start_round(self) -> None:
        """Begin an estimation round (called on the executive's GVT tick)."""
        ...

    def handle_control(self, message: PhysicalMessage) -> None:
        """Process an arriving GVT control message (start, report or
        commit of the Mattern star)."""
        ...

    @property
    def round_active(self) -> bool: ...


def true_global_minimum(executive: "Executive") -> VirtualTime:
    """The exact GVT bound, computed from complete global state."""
    best = min((lp.local_min() for lp in executive.lps), default=float("inf"))
    wire = executive.network.min_in_flight_time()
    if wire is not None and wire < best:
        best = wire
    return best


def note_estimate(
    oracle, tracer, clock: float, algorithm: str,
    estimate: VirtualTime, previous: VirtualTime, executed: int,
) -> None:
    """A GVT estimate was produced: arm the oracle and write the one
    ``gvt.round`` record, stamped with the run's ``executed`` total.
    Every estimator calls this before acting on the value — both modelled
    algorithms and a worker taking a ``GvtCommit``."""
    if oracle.enabled:
        oracle.on_gvt_estimate(clock, estimate, previous)
    if tracer.enabled:
        tracer.emit(
            "gvt.round", clock,
            algorithm=algorithm, gvt=estimate, advanced=estimate > previous,
            executed=executed,
        )


class OmniscientGVT:
    """Exact GVT computed centrally; costs are still charged per LP."""

    def __init__(self, executive: "Executive") -> None:
        self._executive = executive
        self.gvt: VirtualTime = 0.0
        self.rounds = 0

    @property
    def round_active(self) -> bool:
        return False

    def start_round(self) -> None:
        executive = self._executive
        estimate = true_global_minimum(executive)
        self.rounds += 1
        for lp in executive.lps:
            lp.charge(lp.costs.gvt_participation_cost)
            lp.stats.gvt_rounds += 1
        note_estimate(
            executive.oracle, executive.tracer, executive.wallclock,
            "omniscient", estimate, self.gvt, executive.executed_events,
        )
        if estimate > self.gvt:
            self.gvt = estimate
            for lp in executive.lps:
                lp.fossil_collect(estimate)
            executive.on_new_gvt(estimate)

    def handle_control(self, message: PhysicalMessage) -> None:  # pragma: no cover
        raise AssertionError("omniscient GVT sends no control messages")
