"""The median-of-ratios estimator on synthetic series with known truth."""

import math
import random

import pytest

from estimate import iqr_share, median_rate, percentile, ref_seconds
from probe import PROBE_REF_S, probe_work

TRUE_REP_S = 0.5  # drift-free rep time on the reference host
WORK = 10_000.0  # events per rep
REPS = 40


def synthetic(rng, *, drift=0.0, jitter=0.0, outlier_share=0.0):
    """``(walls, probes)``: reps slowed by a slow drift the probe shares,
    fast jitter it does not, and a share of reps doubled outright."""
    def speed(t):  # host slowdown factor at position t in [0, 1]
        return 1.0 + drift * math.sin(math.pi * t)

    n_outliers = round(outlier_share * REPS)
    doubled = set(rng.sample(range(REPS), n_outliers))
    walls, probes = [], []
    for i in range(REPS + 1):
        probes.append(PROBE_REF_S * speed(i / REPS))
    for i in range(REPS):
        wall = TRUE_REP_S * speed((i + 0.5) / REPS)
        wall *= 1.0 + rng.uniform(-jitter, jitter)
        if i in doubled:
            wall *= 2.0
        walls.append(wall)
    return walls, probes


def estimate(walls, probes):
    ref_s = [ref_seconds(w, probes[i], probes[i + 1]) for i, w in enumerate(walls)]
    return median_rate([WORK] * len(walls), ref_s)


def test_drift_and_jitter_are_normalised_away():
    rng = random.Random(7)
    walls, probes = synthetic(rng, drift=0.40, jitter=0.10)
    truth = WORK / TRUE_REP_S
    assert estimate(walls, probes) == pytest.approx(truth, rel=0.03)
    # the same series judged by raw wall time is visibly off
    raw = sorted(WORK / w for w in walls)[len(walls) // 2]
    assert abs(raw - truth) / truth > 0.10


def test_doubled_reps_do_not_move_the_median():
    rng = random.Random(11)
    walls, probes = synthetic(rng, drift=0.40, jitter=0.10, outlier_share=0.10)
    assert estimate(walls, probes) == pytest.approx(WORK / TRUE_REP_S, rel=0.03)


def test_reference_second_is_wall_scaled_by_the_bracketing_probes():
    assert ref_seconds(1.0, PROBE_REF_S, PROBE_REF_S) == pytest.approx(1.0)
    # host twice as slow: twice the wall, same reference seconds
    assert ref_seconds(2.0, 2 * PROBE_REF_S, 2 * PROBE_REF_S) == pytest.approx(1.0)
    assert ref_seconds(1.5, PROBE_REF_S, 2 * PROBE_REF_S) == pytest.approx(1.0)


def test_an_empty_series_is_refused():
    with pytest.raises(ValueError):
        median_rate([], [])


def test_spread_helpers():
    values = [float(v) for v in range(1, 41)]
    assert percentile(values, 0.80) == 33.0
    assert iqr_share(values) == pytest.approx((30.75 - 10.25) / 20.5)
    assert iqr_share([3.0]) == 0.0


def test_probe_is_deterministic():
    assert probe_work(2_000) == probe_work(2_000)
