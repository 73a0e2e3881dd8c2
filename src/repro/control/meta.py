"""The meta-controller: one sample→decide→apply loop for global knobs.

The paper's three controllers each own a private loop buried in the
kernel (checkpointing inside the LP event loop, cancellation inside
comparison resolution, DyMA inside the transport).  Those loops stay
where they are — they are byte-trace-compatible registry entries (see
:mod:`repro.control.registry`) — but the two knobs the paper leaves
static, the GVT period and object placement, have no natural home in
any LP: their outputs are *global* quantities.  The
:class:`MetaController` gives them one: the executive calls
:meth:`MetaController.on_gvt` at every advancing GVT round, each
registered global controller samples its output at its declared period
``P``, runs its transfer function ``T``, and applies the move.

Both controllers feed exclusively on modelled quantities (event
counters, speed factors) — never host wall time — so a run with
meta-control enabled is exactly as deterministic as one without, and the
byte-identical-trace test holds with the meta loop on.

Like every control system here, the feedback competes for the CPU it is
trying to save: each invocation charges
:attr:`~repro.cluster.costmodel.CostModel.control_invocation_cost` to
every LP, exactly like the adaptive-time-window loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..kernel.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.executive import Executive


@dataclass
class GvtPeriodController:
    """On-line GVT-period control: memory pressure vs round overhead.

    ``O`` is the uncommitted-history backlog per LP — executed minus
    rolled-back minus committed events, i.e. the speculative history a
    fossil pass cannot reclaim yet.  A large backlog means GVT rounds
    are too rare to bound memory (shrink the period); a small one means
    the rounds' control traffic is pure overhead (grow it).  Dead-zone
    in between, multiplicative moves, clamped to a safe range — the same
    shape as :class:`~repro.core.window_controller.AdaptiveTimeWindow`.
    """

    #: control period P, in advancing GVT rounds
    period: int = 4
    #: backlog per LP above which the period shrinks
    high_backlog: float = 512.0
    #: backlog per LP below which the period grows
    low_backlog: float = 64.0
    shrink: float = 0.5
    grow: float = 1.5
    min_period_us: float = 1_000.0
    max_period_us: float = 1_000_000.0
    last_verdict: str = ""

    def control(self, backlog_per_lp: float, current: float) -> float:
        """One transfer-function evaluation: backlog -> new period."""
        if backlog_per_lp > self.high_backlog:
            new = max(current * self.shrink, self.min_period_us)
            self.last_verdict = "backlog_high"
        elif backlog_per_lp < self.low_backlog:
            new = min(current * self.grow, self.max_period_us)
            self.last_verdict = "backlog_low"
        else:
            new = current
            self.last_verdict = "dead_zone"
        return new


@dataclass
class PlacementController:
    """On-line object placement: migrate load off the hottest LP.

    ``O`` is the per-LP *cost-weighted committed-event* imbalance over
    the last control window: each LP's window of committed events times
    its speed factor (a slow workstation pays more wall time per event),
    the hottest such load divided by the mean.  Committed — not executed
    — counts, because rollback re-execution inflates the fast,
    far-ahead LPs' executed totals and inverts the signal; committed
    progress is model-determined and steady, so the loop converges to a
    speed-proportional placement and then holds.  Above ``imbalance``,
    the
    controller asks :func:`repro.partition.rebalance.choose_moves` for
    the migration that best lowers the peak load and applies it through
    :meth:`Executive.migrate_object` — a real live migration of the
    object's full Time Warp context, not a bookkeeping relabel.  The
    parallel backend's coordinator drives this same class from
    ``ShardReport.loads`` (all-equal factors, live-migration epochs), so
    both backends window, threshold and flap (or refuse to) the same way;
    only ``period`` differs — there it is ``backend.BALANCE_PERIOD`` = 1,
    because a GVT commit costs a real ``gvt_period`` of wall time and a
    short run sees a dozen of them.
    """

    #: control period P, in advancing GVT rounds
    period: int = 8
    #: hottest-LP load over mean load above which a move is proposed
    imbalance: float = 1.25
    #: migrations applied per invocation
    max_moves: int = 1
    last_verdict: str = ""
    #: (imbalance, moves) per invocation
    history: list = field(default_factory=list)
    #: per-object executed counts at the previous invocation (the
    #: controller balances *recent* load, not lifetime totals)
    _last_counts: dict = field(default_factory=dict, repr=False)

    def control(
        self,
        loads: dict[int, dict[int, int]],
        factors: dict[int, float] | None = None,
    ) -> tuple[tuple[int, int, int], ...]:
        """One transfer-function evaluation: load sample -> moves."""
        factor = {lp_id: (factors or {}).get(lp_id, 1.0) for lp_id in loads}
        window: dict[int, dict[int, int]] = {}
        for lp_id, per in loads.items():
            window[lp_id] = {
                oid: count - self._last_counts.get(oid, 0)
                for oid, count in per.items()
            }
            for oid, count in per.items():
                self._last_counts[oid] = count
        totals = {
            lp_id: factor[lp_id] * sum(per.values())
            for lp_id, per in window.items()
        }
        mean = sum(totals.values()) / max(1, len(totals))
        observed = max(totals.values(), default=0) / mean if mean > 0 else 0.0
        from ..partition.rebalance import choose_moves

        moves = choose_moves(
            window,
            threshold=self.imbalance,
            factors=factor,
            max_moves=self.max_moves,
        )
        self.last_verdict = "migrate" if moves else "hold"
        self.history.append((observed, moves))
        return moves


#: the knobs a MetaController can own (the per-object/per-LP knobs are
#: driven by their in-kernel loops; see repro.control.registry)
META_KNOBS = ("gvt_period", "placement")


class MetaController:
    """Owns the sample→decide→apply loop for the registered global knobs.

    Construct one per run (it holds per-run state) and hand it to
    :class:`~repro.kernel.config.SimulationConfig` via the
    ``meta_control`` factory field::

        config = SimulationConfig(meta_control=lambda: MetaController())

    The kernel attaches it to the executive; :meth:`on_gvt` then runs at
    every advancing GVT round and invokes each knob's controller at that
    knob's declared period.
    """

    def __init__(
        self,
        knobs: tuple[str, ...] = META_KNOBS,
        *,
        gvt_period: GvtPeriodController | None = None,
        placement: PlacementController | None = None,
    ) -> None:
        unknown = set(knobs) - set(META_KNOBS)
        if unknown:
            raise ConfigurationError(
                f"MetaController cannot drive {sorted(unknown)}; "
                f"meta-managed knobs are {META_KNOBS} (docs/control.md)"
            )
        self.knobs = tuple(knobs)
        self.gvt_period = gvt_period or GvtPeriodController()
        self.placement = placement or PlacementController()
        self._rounds = 0

    # ------------------------------------------------------------------ #
    def attach(self, executive: "Executive") -> None:
        """Wire the loop into a run (called by the kernel facade)."""
        executive.meta = self

    # ------------------------------------------------------------------ #
    def on_gvt(self, executive: "Executive", gvt: float) -> None:
        """One advancing GVT round: run every due knob controller."""
        self._rounds += 1
        invoked = False
        if "gvt_period" in self.knobs and self._rounds % self.gvt_period.period == 0:
            self._control_gvt_period(executive, gvt)
            invoked = True
        if "placement" in self.knobs and self._rounds % self.placement.period == 0:
            self._control_placement(executive)
            invoked = True
        if invoked:
            # feedback competes for the CPU it tunes, like window control
            for lp in executive.lps:
                lp.charge(lp.costs.control_invocation_cost)

    def _control_gvt_period(self, executive: "Executive", gvt: float) -> None:
        executed = executive.executed_events
        committed = rolled = 0
        for lp in executive.lps:
            for ctx in lp.members.values():
                committed += ctx.stats.events_committed
                rolled += ctx.stats.events_rolled_back
        backlog = max(0, executed - rolled - committed)
        per_lp = backlog / max(1, len(executive.lps))
        old = executive.gvt_period
        new = self.gvt_period.control(per_lp, old)
        executive.gvt_period = new
        tracer = executive.tracer
        if tracer.enabled:
            tracer.emit(
                "ctrl.gvt", executive.wallclock,
                o=per_lp,
                old=old,
                new=new,
                verdict=self.gvt_period.last_verdict,
                executed=executed,
                committed=committed,
                gvt=gvt,
            )

    def _control_placement(self, executive: "Executive") -> None:
        if executive.routing is None:
            return  # a bare executive (unit tests) has nothing to move
        loads = {
            lp.lp_id: {
                oid: ctx.stats.events_committed
                for oid, ctx in lp.members.items()
            }
            for lp in executive.lps
        }
        factors = {
            lp.lp_id: executive.config.lp_speed_factors.get(lp.lp_id, 1.0)
            for lp in executive.lps
        }
        moves = self.placement.control(loads, factors)
        for oid, _src, dst in moves:
            executive.migrate_object(oid, dst)
        tracer = executive.tracer
        if tracer.enabled:
            observed, _ = self.placement.history[-1]
            tracer.emit(
                "ctrl.placement", executive.wallclock,
                o=observed,
                old=",".join(f"{oid}@{src}" for oid, src, _ in moves),
                new=",".join(f"{oid}@{dst}" for oid, _, dst in moves),
                verdict=self.placement.last_verdict,
                moves=len(moves),
            )
