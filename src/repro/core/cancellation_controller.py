"""Dynamic cancellation: the ``<HR, I, Aggressive, A, P>`` control system.

The Hit Ratio ``HR = (lazy hits + lazy-aggressive hits) / filter depth``
measures how productive an object's premature computations were in its
recent past: a high HR means rolled-back sends are regenerated unchanged,
so lazy cancellation would have avoided the anti-message + resend; a low
HR means the optimistic output really was wrong, so cancelling it
immediately (aggressively) limits error spread.

Variants reproduced from the paper's evaluation:

* :class:`DynamicCancellation` (``DC``) — dead-zone thresholding with
  A2L and L2A thresholds (Figure 3); the evaluation uses filter depth 16,
  A2L = 0.45, L2A = 0.2 for RAID.
* ``ST`` — single threshold: :func:`single_threshold` builds a
  :class:`DynamicCancellation` with A2L == L2A (no dead zone).
* :class:`PermanentSet` (``PS-n``) — behaves like DC until *n*
  comparisons have been observed, then locks the thresholded strategy in
  permanently and *stops monitoring*, eliminating the passive-comparison
  cost (the paper's PS32/PS64).
* :class:`PermanentAggressive` (``PA-n``) — locks aggressive in
  permanently if *n* successive comparisons miss (the paper's PA10);
  otherwise keeps adapting like DC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.cancellation import Mode
from ..kernel.errors import ConfigurationError
from .filters import SampleWindow
from .thresholding import DeadZoneThreshold


@dataclass
class DynamicCancellation:
    """The paper's DC controller.

    Attributes:
        filter_depth: ring-buffer depth *n* over which HR is computed.
        a2l_threshold: HR at/above which the object switches to lazy.
        l2a_threshold: HR at/below which it switches back to aggressive.
        period: control invocation period ``P`` in resolved comparisons.
    """

    filter_depth: int = 16
    a2l_threshold: float = 0.45
    l2a_threshold: float = 0.2
    period: int | None = 8

    window: SampleWindow = field(init=False)
    _threshold: DeadZoneThreshold[Mode] = field(init=False)
    #: dead-zone verdict of the last invocation; recorded in the
    #: ``ctrl.cancellation`` trace record (docs/observability.md)
    last_verdict: str = field(default="", init=False)

    def __post_init__(self) -> None:
        if self.l2a_threshold > self.a2l_threshold:
            raise ConfigurationError(
                "L2A threshold must not exceed A2L threshold "
                f"({self.l2a_threshold} > {self.a2l_threshold})"
            )
        self.window = SampleWindow(self.filter_depth)
        self._threshold = DeadZoneThreshold(
            lower=self.l2a_threshold,
            upper=self.a2l_threshold,
            low=Mode.AGGRESSIVE,
            high=Mode.LAZY,
            initial=Mode.AGGRESSIVE,
        )

    # -- CancellationPolicy protocol ------------------------------------ #
    def initial_mode(self) -> Mode:
        return Mode.AGGRESSIVE

    @property
    def monitoring(self) -> bool:
        return True

    def record(self, hit: bool) -> None:
        self.window.record(hit)

    def control(self) -> Mode:
        hr = self.hit_ratio
        mode = self._threshold.update(hr)
        if hr >= self.a2l_threshold:
            self.last_verdict = "above_a2l"
        elif hr <= self.l2a_threshold:
            self.last_verdict = "below_l2a"
        else:
            self.last_verdict = "dead_zone"
        return mode

    # -- introspection --------------------------------------------------- #
    @property
    def hit_ratio(self) -> float:
        return self.window.ratio()

    @property
    def mode(self) -> Mode:
        return self._threshold.output

    @property
    def switches(self) -> int:
        return self._threshold.transitions



def single_threshold(
    threshold: float = 0.4, filter_depth: int = 16, period: int | None = 8
) -> DynamicCancellation:
    """The paper's ``ST`` variant: A2L == L2A (dead zone eliminated)."""
    return DynamicCancellation(
        filter_depth=filter_depth,
        a2l_threshold=threshold,
        l2a_threshold=threshold,
        period=period,
    )


@dataclass
class PermanentSet(DynamicCancellation):
    """``PS-n``: permanently set the strategy after *n* comparisons.

    Once ``lock_after`` comparisons have been observed, the currently
    thresholded strategy is locked in and monitoring stops — the passive
    comparison cost disappears for the rest of the run, which is why the
    paper measured PS32/PS64 slightly ahead of plain DC.
    """

    lock_after: int = 32
    _locked: Mode | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lock_after < 1:
            raise ConfigurationError("lock_after must be >= 1")

    @property
    def monitoring(self) -> bool:
        return self._locked is None

    @property
    def locked(self) -> Mode | None:
        return self._locked

    def control(self) -> Mode:
        if self._locked is not None:
            self.last_verdict = "locked"
            return self._locked
        mode = super().control()
        if self.window.samples_seen >= self.lock_after:
            # Lock in what the thresholding function currently selects and
            # stop paying for control invocations from here on.
            self._locked = mode
            self.period = None
            self.last_verdict = "locked_in"
        return mode



@dataclass
class PermanentAggressive(DynamicCancellation):
    """``PA-n``: lock aggressive in after *n* successive misses.

    An object whose regenerated output keeps differing from its premature
    output is wasting comparison effort: after ``miss_streak`` consecutive
    misses the controller pins aggressive cancellation and stops
    monitoring.
    """

    miss_streak: int = 10
    _locked: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.miss_streak < 1:
            raise ConfigurationError("miss_streak must be >= 1")

    @property
    def monitoring(self) -> bool:
        return not self._locked

    @property
    def locked(self) -> Mode | None:
        return Mode.AGGRESSIVE if self._locked else None

    def record(self, hit: bool) -> None:
        super().record(hit)
        if not self._locked and self.window.consecutive_false >= self.miss_streak:
            self._locked = True

    def control(self) -> Mode:
        if self._locked:
            # Apply the pinned strategy, then stop control invocations.
            self.period = None
            self.last_verdict = "pinned_aggressive"
            return Mode.AGGRESSIVE
        return super().control()

