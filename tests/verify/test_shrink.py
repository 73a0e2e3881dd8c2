"""Greedy shrinker: minimizes while preserving the failure kind."""

from dataclasses import dataclass

from repro.verify import Scenario, shrink


@dataclass
class FakeResult:
    failure_kind: str


def test_shrink_strips_knobs_while_failure_persists():
    """A failure independent of configuration shrinks to the pivot."""
    complex_scenario = Scenario(
        app="phold",
        app_params={"n_objects": 12, "n_lps": 4, "jobs_per_object": 3},
        cancellation="ps32",
        checkpoint=64,
        aggregation="saaw",
        gvt_algorithm="mattern",
        time_window="adaptive",
        meta_control="on",
        lp_speed_factors={"0": 2.0},
        faults={"seed": 1, "rates": {"drop": 0.1}},
    )

    def always_fails(scenario):
        return FakeResult("digest")

    result = shrink(complex_scenario, "digest", always_fails, max_runs=200)
    s = result.scenario
    assert s.faults is None
    assert s.cancellation == "aggressive"
    assert s.checkpoint == 1
    assert s.aggregation == "none"
    assert s.gvt_algorithm == "omniscient"
    assert s.time_window == "none"
    assert s.meta_control == "off"
    assert not s.lp_speed_factors
    # topology pulled to the floors
    merged = s.merged_params()
    assert merged["n_objects"] == 4
    assert merged["n_lps"] == 1
    assert result.steps > 0


def test_shrink_preserves_the_failure_kind():
    """A knob-dependent failure keeps the knob that causes it."""
    scenario = Scenario(cancellation="lazy", checkpoint=32, aggregation="saaw")

    def fails_only_when_lazy(candidate):
        kind = "digest" if candidate.cancellation == "lazy" else ""
        return FakeResult(kind)

    result = shrink(scenario, "digest", fails_only_when_lazy, max_runs=200)
    assert result.scenario.cancellation == "lazy"
    assert result.scenario.checkpoint == 1  # unrelated knobs still reset
    assert result.scenario.aggregation == "none"


def test_shrink_respects_the_run_budget():
    calls = 0

    def count_and_fail(scenario):
        nonlocal calls
        calls += 1
        return FakeResult("digest")

    shrink(Scenario(checkpoint=64, aggregation="saaw"), "digest",
           count_and_fail, max_runs=3)
    assert calls <= 3


def test_shrink_skips_invalid_candidates():
    """Backend collapse to modelled keeps knobs valid along the way."""
    scenario = Scenario(backend="parallel", workers=2, cancellation="lazy")

    def fails_everywhere(candidate):
        return FakeResult("digest")

    result = shrink(scenario, "digest", fails_everywhere, max_runs=100)
    assert result.scenario.backend == "modelled"
    result.scenario.validate()
