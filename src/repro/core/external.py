"""External adjustment of runtime parameters (paper reference [26]).

Radhakrishnan, Moore & Wilsey, "External adjustment of runtime
parameters in Time Warp synchronized parallel simulators" (IPPS '97) —
the precursor to this paper's on-line configuration: instead of a
feedback loop, a human (or an external agent) changes the simulator's
knobs *while it runs*.  This module reproduces that capability on top of
the same kernel interfaces the controllers use.

An external script is a list of ``(wallclock_us, adjustment)`` pairs
passed through :attr:`SimulationConfig.external_script`; each adjustment
is applied when the modelled cluster reaches that wall-clock time.  The
helpers below build the common adjustments; arbitrary callables taking
the :class:`~repro.cluster.executive.Executive` are accepted too.

Example::

    config = SimulationConfig(external_script=[
        (100_000.0, set_cancellation_mode("disk-3", Mode.LAZY)),
        (250_000.0, set_checkpoint_interval("cache-0", 16)),
        (400_000.0, set_aggregation_window(lp_id=2, window_us=8_000.0)),
    ])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..kernel.cancellation import Mode
from ..kernel.checkpointing import MAX_INTERVAL
from ..kernel.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.executive import Executive

Adjustment = Callable[["Executive"], None]


def _find_ctx(executive: "Executive", obj_name: str):
    for lp in executive.lps:
        for ctx in lp.members.values():
            if ctx.obj.name == obj_name:
                return ctx
    raise ConfigurationError(f"no simulation object named {obj_name!r}")


def set_checkpoint_interval(obj_name: str, interval: int) -> Adjustment:
    """Pin one object's checkpoint interval chi."""
    if not 1 <= interval <= MAX_INTERVAL:
        raise ConfigurationError(
            f"interval must be in [1, {MAX_INTERVAL}], got {interval}"
        )

    def adjust(executive: "Executive") -> None:
        _find_ctx(executive, obj_name).chi = interval

    return adjust


def set_cancellation_mode(obj_name: str, mode: Mode) -> Adjustment:
    """Switch one object's cancellation strategy.

    Exactly like the dynamic controller's switch: it affects how *future*
    rollbacks undo sends; messages already parked keep their semantics.
    """

    def adjust(executive: "Executive") -> None:
        ctx = _find_ctx(executive, obj_name)
        if ctx.mode is not mode:
            ctx.mode = mode
            ctx.stats.mode_switches += 1

    return adjust


def set_aggregation_window(lp_id: int, window_us: float) -> Adjustment:
    """Pin one LP's aggregation window (0 disables buffering for new
    events; anything already buffered is flushed on its old schedule).

    Replaces the LP's aggregation *policy* with a fixed one, so the
    externally chosen window is not overwritten at the next aggregate —
    external adjustment takes the knob away from the controller, exactly
    as in reference [26].
    """
    if window_us < 0:
        raise ConfigurationError("window must be >= 0")

    def adjust(executive: "Executive") -> None:
        from ..comm.aggregation import FixedWindow, NoAggregation

        try:
            lp = executive.lps[lp_id]
        except IndexError:
            raise ConfigurationError(f"no LP {lp_id}") from None
        lp.comm.policy = (
            FixedWindow(window_us) if window_us > 0 else NoAggregation()
        )
        lp.comm.window = window_us

    return adjust


def set_optimism_window(window: float) -> Adjustment:
    """Bound optimism to ``GVT + window`` from now on.

    Installs (or replaces) the executive's time-window policy with a
    static one of the given width, so every subsequent GVT round
    re-anchors the bound — a throttled LP is always unblocked by the next
    round, even if the simulation was started as pure Time Warp.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")

    def adjust(executive: "Executive") -> None:
        from .window_controller import StaticTimeWindow

        executive.window_policy = StaticTimeWindow(window)
        executive._window_width = window
        bound = executive.gvt + window
        for lp in executive.lps:
            lp.optimism_bound = bound
            if lp.has_work():
                executive._schedule_turn(lp)

    return adjust
