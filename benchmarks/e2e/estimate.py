"""Median-of-ratios estimator over probe-bracketed reps.

Every timed rep has a probe run just before it and one just after it
(neighbouring reps share a probe).  Each rep is converted to reference
seconds on its own two probes, and the reported value is the **median of
the per-rep values** — never a minimum (rewards lucky turbo bursts), a
mean (one descheduled rep moves it) or a ratio of sums (a slow block of
reps outweighs a fast one).
"""

from __future__ import annotations

import statistics
from typing import Sequence

from probe import PROBE_REF_S


def ref_seconds(wall_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """``wall_s`` expressed in reference seconds."""
    return wall_s * PROBE_REF_S / ((probe_before_s + probe_after_s) / 2.0)


def median_rate(work: Sequence[float], ref_s: Sequence[float]) -> float:
    """Median of per-rep ``work / ref_s`` (e.g. committed events per ref s)."""
    if not ref_s:
        raise ValueError("no successful reps to estimate from")
    return statistics.median(w / t for w, t in zip(work, ref_s, strict=True))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] (no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values).

    The quartiles are ``statistics.quantiles(values, n=4)``, the same rule
    the driver applies to the run-to-run spread of each metric.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
