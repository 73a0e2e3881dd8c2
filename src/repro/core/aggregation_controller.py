"""DyMA feedback control: the SAAW policy.

The paper's Simple Adaptive Aggregation Window is described by the tuple
``<R(age), W, W_initial, SAAW, everyAggregate>``: as each aggregate is
sent, the *age-modified* message reception rate it achieved is compared
with the previous aggregate's, and the window grows if the modified rate
rose (bursty traffic: more aggregation is profitable) or shrinks if it
fell (sparse traffic: further delay just harms the receiver).

The age modification implements the paper's requirement that of two
aggregates achieving the same raw rate, the *younger* one counts as the
higher modified rate: ``R(age) = (count / age) / (1 + age_penalty * age)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.errors import ConfigurationError

#: Floor for aggregate ages in rate computations, to avoid dividing by the
#: (wall-clock) zero age of a buffer flushed in the same instant it opened.
MIN_AGE = 1e-3


@dataclass
class SAAWPolicy:
    """Simple Adaptive Aggregation Window.

    Attributes:
        initial_window_us: ``W_initial`` (the only statically fixed input).
        step: relative window adjustment per aggregate (10 % by default).
        age_penalty: weight of the age modification of the rate (per µs).
        min_window_us / max_window_us: clamps for the adapted window.
    """

    initial_window_us: float = 100.0
    step: float = 0.1
    age_penalty: float = 1e-5
    min_window_us: float = 1.0
    max_window_us: float = 100_000.0

    _last_rate: float | None = field(default=None, init=False)
    #: rate-comparison verdict and sampled R(age) of the last invocation;
    #: recorded in the ``ctrl.aggregation`` trace record
    last_verdict: str = field(default="", init=False)
    last_rate: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.initial_window_us <= 0:
            raise ConfigurationError("SAAW initial window must be > 0")
        if not 0 < self.step < 1:
            raise ConfigurationError("SAAW step must be in (0, 1)")
        if not 0 < self.min_window_us <= self.max_window_us:
            raise ConfigurationError("SAAW window clamps are inconsistent")

    # -- AggregationPolicy protocol -------------------------------------- #
    def initial_window(self) -> float:
        return self._clamp(self.initial_window_us)

    def next_window(self, sent_count: int, age: float, window: float) -> float:
        rate = self.modified_rate(sent_count, age)
        previous = self._last_rate
        self._last_rate = rate
        self.last_rate = rate
        if previous is None:
            self.last_verdict = "first_aggregate"
            return window
        if rate > previous:
            self.last_verdict = "rate_rose"
            window = window * (1.0 + self.step)
        elif rate < previous:
            self.last_verdict = "rate_fell"
            window = window * (1.0 - self.step)
        else:
            self.last_verdict = "rate_flat"
        return self._clamp(window)

    # -- helpers ----------------------------------------------------------- #
    def modified_rate(self, count: int, age: float) -> float:
        """``R(age)``: raw reception rate discounted by aggregate age."""
        age = max(age, MIN_AGE)
        return (count / age) / (1.0 + self.age_penalty * age)

    def _clamp(self, window: float) -> float:
        return min(self.max_window_us, max(self.min_window_us, window))
