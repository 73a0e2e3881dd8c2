"""Data filters for feedback control.

"Virtually all dynamic control investigations have also used data
filtering techniques to smooth and to prevent spurious data points from
causing wide variations in parameter adjustment" (Section 3).  The one
filter the controllers in this package use is :class:`SampleWindow`, a
fixed-depth ring buffer of boolean samples: the paper's *Filter Depth*
record of the last *n* output-message comparisons, whose mean is the Hit
Ratio.
"""

from __future__ import annotations

from collections import deque

from ..kernel.errors import ConfigurationError


class SampleWindow:
    """Ring buffer of the last ``depth`` boolean samples.

    ``ratio()`` divides by ``depth`` (the paper's definition of the Hit
    Ratio divides by Filter Depth, not by samples seen), so the ratio
    ramps up from zero while the window warms — which conveniently biases
    a freshly started object toward the initial (aggressive) strategy.
    """

    __slots__ = ("depth", "_window", "_true_count", "_total_seen", "_streak_false")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ConfigurationError(f"filter depth must be >= 1, got {depth}")
        self.depth = depth
        self._window: deque[bool] = deque(maxlen=depth)
        self._true_count = 0
        self._total_seen = 0
        self._streak_false = 0

    def record(self, value: bool) -> None:
        if len(self._window) == self.depth:
            if self._window[0]:
                self._true_count -= 1
        self._window.append(value)
        if value:
            self._true_count += 1
            self._streak_false = 0
        else:
            self._streak_false += 1
        self._total_seen += 1

    def ratio(self) -> float:
        """Fraction of true samples over the *full* window depth."""
        return self._true_count / self.depth

    @property
    def samples_seen(self) -> int:
        return self._total_seen

    @property
    def consecutive_false(self) -> int:
        """Length of the current run of false samples (PA-n uses this)."""
        return self._streak_false

    def is_warm(self) -> bool:
        return len(self._window) == self.depth

    def __len__(self) -> int:
        return len(self._window)
