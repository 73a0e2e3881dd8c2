"""Integration: Time Warp executions must commit the sequential trace.

This is the central correctness theorem of Time Warp — any optimistic
execution, under any configuration of cancellation, checkpointing,
aggregation, GVT and platform skew, commits exactly the events a
sequential execution performs.  The matrix below covers every
sub-algorithm of the reproduced paper on three workloads.
"""

import pytest

from repro import (
    DynamicCancellation,
    DynamicCheckpoint,
    FixedWindow,
    Mode,
    NetworkModel,
    PermanentAggressive,
    PermanentSet,
    SAAWPolicy,
    StaticCancellation,
    StaticCheckpoint,
    single_threshold,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.raid import RAIDParams, build_raid
from repro.apps.smmp import SMMPParams, build_smmp
from tests.helpers import assert_equivalent

SKEW = {1: 1.15, 2: 1.3, 3: 1.45}
JITTERY = NetworkModel(jitter=0.5)


def phold():
    return build_phold(PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=2,
                                   deterministic_fraction=0.5))


def smmp():
    return build_smmp(SMMPParams(requests_per_processor=30))


def raid():
    return build_raid(RAIDParams(requests_per_source=30))


CANCELLATIONS = {
    "AC": lambda o: StaticCancellation(Mode.AGGRESSIVE),
    "AC-monitored": lambda o: StaticCancellation(Mode.AGGRESSIVE, monitor=True),
    "LC": lambda o: StaticCancellation(Mode.LAZY),
    "DC": lambda o: DynamicCancellation(filter_depth=8, period=4),
    "ST": lambda o: single_threshold(0.4, filter_depth=8, period=4),
    "PS": lambda o: PermanentSet(filter_depth=8, lock_after=8, period=4),
    "PA": lambda o: PermanentAggressive(filter_depth=8, miss_streak=4, period=4),
}


class TestCancellationEquivalence:
    @pytest.mark.parametrize("name", list(CANCELLATIONS))
    def test_phold_end_time(self, name):
        assert_equivalent(
            phold, end_time=600.0,
            cancellation=CANCELLATIONS[name],
            lp_speed_factors=SKEW, network=JITTERY,
        )

    @pytest.mark.parametrize("name", ["AC", "LC", "DC"])
    def test_smmp(self, name):
        assert_equivalent(
            smmp, cancellation=CANCELLATIONS[name],
            lp_speed_factors=SKEW, network=JITTERY,
        )

    @pytest.mark.parametrize("name", ["AC", "LC", "DC", "PA"])
    def test_raid(self, name):
        assert_equivalent(
            raid, cancellation=CANCELLATIONS[name],
            lp_speed_factors=SKEW, network=JITTERY,
        )


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("chi", [1, 2, 7, 64])
    def test_static_intervals(self, chi):
        assert_equivalent(
            raid, checkpoint=lambda o: StaticCheckpoint(chi),
            lp_speed_factors=SKEW,
        )

    def test_dynamic_interval(self):
        assert_equivalent(
            smmp, checkpoint=lambda o: DynamicCheckpoint(period=8),
            cancellation=CANCELLATIONS["LC"], lp_speed_factors=SKEW,
        )


class TestAggregationEquivalence:
    @pytest.mark.parametrize("window", [50.0, 500.0, 5000.0])
    def test_fixed_windows(self, window):
        assert_equivalent(
            smmp, aggregation=lambda lp: FixedWindow(window),
            lp_speed_factors=SKEW,
        )

    def test_saaw(self):
        assert_equivalent(
            raid, aggregation=lambda lp: SAAWPolicy(initial_window_us=200.0),
            cancellation=CANCELLATIONS["LC"], lp_speed_factors=SKEW,
        )

    def test_aggregation_with_lazy_and_dynamic_ckpt(self):
        assert_equivalent(
            phold, end_time=600.0,
            aggregation=lambda lp: SAAWPolicy(),
            cancellation=CANCELLATIONS["DC"],
            checkpoint=lambda o: DynamicCheckpoint(period=8),
            lp_speed_factors=SKEW, network=JITTERY,
        )


class TestGVTEquivalence:
    @pytest.mark.parametrize("period", [1_000.0, 20_000.0])
    def test_gvt_period_is_transparent(self, period):
        assert_equivalent(raid, gvt_period=period, lp_speed_factors=SKEW)

    def test_mattern_is_transparent(self):
        assert_equivalent(
            raid, gvt_algorithm="mattern", gvt_period=5_000.0,
            lp_speed_factors=SKEW,
        )

    def test_mattern_with_aggregation_and_lazy(self):
        assert_equivalent(
            smmp, gvt_algorithm="mattern", gvt_period=5_000.0,
            aggregation=lambda lp: FixedWindow(400.0),
            cancellation=CANCELLATIONS["LC"], lp_speed_factors=SKEW,
        )


class TestPlatformEquivalence:
    def test_extreme_skew(self):
        assert_equivalent(
            phold, end_time=400.0,
            lp_speed_factors={0: 1.0, 1: 3.0, 2: 1.0, 3: 5.0},
        )

    def test_everything_at_once(self):
        assert_equivalent(
            raid,
            cancellation=CANCELLATIONS["DC"],
            checkpoint=lambda o: DynamicCheckpoint(period=8),
            aggregation=lambda lp: SAAWPolicy(),
            gvt_algorithm="mattern", gvt_period=4_000.0,
            lp_speed_factors=SKEW, network=JITTERY,
        )
