"""Dynamic check-pointing: the ``<Ec, chi, 1, A, P>`` control system.

The controller monitors the check-pointing cost index ``Ec`` — the sum of
state-saving cost and coast-forward cost accumulated since the previous
control invocation — and adjusts the checkpoint interval ``chi`` under the
single-minimum assumption: the optimal interval minimizes ``Ec``.

Two transfer functions are provided:

* :class:`DynamicCheckpoint` — the paper's heuristic ``A``: "at every
  control invocation, if Ec is not observed to have increased
  significantly, the check-pointing period is incremented; otherwise, it
  is decremented."  Simple, nearly free to evaluate — the paper's point is
  precisely that this beats the costly analytical models of Lin and
  Palaniswamy *because* it is cheap.
* :class:`HillClimbCheckpoint` — an ablation variant that remembers its
  direction of travel and reverses when ``Ec`` worsens, converging from
  either side of the minimum.  Used by
  ``benchmarks/bench_abl_checkpoint_sweep.py`` to quantify how much the
  transfer function matters.

``Ec`` is normalized per processed event before comparison: windows are
equal in *events* (the invocation period), but a window interrupted by
fossil-collection pauses or idle time would otherwise skew raw sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.checkpointing import MAX_INTERVAL, CheckpointWindow
from ..kernel.errors import ConfigurationError


@dataclass
class DynamicCheckpoint:
    """The paper's dynamic check-pointing controller.

    Attributes:
        initial: starting interval ``S`` (the paper starts at 1, the
            save-every-event default).
        period: control invocation period ``P`` in processed events.
        significance: relative increase of normalized ``Ec`` that counts
            as "increased significantly".
        step: interval increment/decrement applied by the transfer
            function.
        max_interval: upper clamp for the interval.
    """

    initial: int = 1
    period: int = 16
    significance: float = 0.05
    step: int = 1
    max_interval: int = MAX_INTERVAL

    _interval: int = field(init=False)
    _previous_ec: float | None = field(default=None, init=False)
    #: transfer-function branch taken by the last invocation; recorded in
    #: the ``ctrl.checkpoint`` trace record (docs/observability.md)
    last_verdict: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError("control period must be >= 1 event")
        if not 1 <= self.initial <= self.max_interval:
            raise ConfigurationError(
                f"initial interval must be in [1, {self.max_interval}]"
            )
        if self.significance < 0:
            raise ConfigurationError("significance must be >= 0")
        self._interval = self.initial

    # -- CheckpointPolicy protocol ------------------------------------- #
    def initial_interval(self) -> int:
        return self._interval

    def control(self, window: CheckpointWindow) -> int:
        events = max(1, window.events)
        ec = window.ec / events
        previous = self._previous_ec
        self._previous_ec = ec
        if previous is None:
            self.last_verdict = "first_sample"
            return self._interval
        if ec > previous * (1.0 + self.significance):
            self.last_verdict = "ec_rose"
            self._interval = max(1, self._interval - self.step)
        else:
            self.last_verdict = "ec_flat"
            self._interval = min(self.max_interval, self._interval + self.step)
        return self._interval

    # -- introspection --------------------------------------------------- #
    @property
    def interval(self) -> int:
        return self._interval


@dataclass
class HillClimbCheckpoint:
    """Directional hill-climbing variant (ablation).

    Keeps moving the interval in its current direction while ``Ec``
    improves; reverses direction when ``Ec`` worsens beyond the
    significance band.  Converges to the minimum from either side instead
    of relying on the paper's upward drift + decrement correction.
    """

    initial: int = 1
    period: int = 16
    significance: float = 0.02
    step: int = 1
    max_interval: int = MAX_INTERVAL

    _interval: int = field(init=False)
    _direction: int = field(default=1, init=False)
    _previous_ec: float | None = field(default=None, init=False)
    last_verdict: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError("control period must be >= 1 event")
        if not 1 <= self.initial <= self.max_interval:
            raise ConfigurationError(
                f"initial interval must be in [1, {self.max_interval}]"
            )
        self._interval = self.initial

    def initial_interval(self) -> int:
        return self._interval

    def control(self, window: CheckpointWindow) -> int:
        events = max(1, window.events)
        ec = window.ec / events
        previous = self._previous_ec
        self._previous_ec = ec
        if previous is None:
            self.last_verdict = "first_sample"
        elif ec > previous * (1.0 + self.significance):
            self._direction = -self._direction
            self.last_verdict = "reversed"
        else:
            self.last_verdict = "kept_direction"
        candidate = self._interval + self._direction * self.step
        if candidate < 1:
            candidate = 1
            self._direction = 1
        elif candidate > self.max_interval:
            candidate = self.max_interval
            self._direction = -1
        self._interval = candidate
        return self._interval

    @property
    def interval(self) -> int:
        return self._interval
