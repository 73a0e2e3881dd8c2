"""run_scenario: digests, check battery, failure classification."""

import multiprocessing

import pytest

from repro.verify import Scenario, run_scenario, sequential_golden
from repro.verify.runner import ScenarioResult, _finish, canonical_value, committed_digest

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)


def test_committed_digest_is_order_insensitive_and_stable():
    records = {"b": (2, {"x": 1}), "a": (3, [1, 2])}
    assert committed_digest(records) == committed_digest(dict(reversed(records.items())))
    assert committed_digest(records) != committed_digest({"a": (3, [1, 2])})


def test_canonical_value_sorts_dicts_and_handles_dataclasses():
    from dataclasses import dataclass

    @dataclass
    class S:
        n: int
        items: tuple

    assert canonical_value(S(1, (2, 3))) == {"n": 1, "items": [2, 3]}
    assert canonical_value({2: "b", 1: "a"}) == {"1": "a", "2": "b"}


def test_sequential_golden_is_cached_per_workload():
    a = sequential_golden(Scenario())
    b = sequential_golden(Scenario(cancellation="lazy", checkpoint=8))
    assert a is b  # knobs don't change the workload key
    c = sequential_golden(Scenario(app_params={"n_objects": 6}))
    assert c is not a


def test_the_three_former_goldens_were_one_golden():
    # the literals CI's fault and parallel smokes have always printed
    assert sequential_golden(Scenario(app="phold", end_time=300.0)).committed == 167
    assert sequential_golden(Scenario(app="smmp")).committed == 110


def test_a_failing_line_names_the_differing_objects_and_every_set_axis():
    scenario = Scenario(backend="parallel", workers=2, gvt_period=1e3)
    golden = sequential_golden(scenario)
    records = {n: (golden.per_object.get(n, 0), s) for n, s in golden.states.items()}
    victim = min(records)
    records[victim] = (records[victim][0] + 1, records[victim][1])
    result = ScenarioResult(scenario=scenario)
    _finish(result, golden, records)
    assert result.mismatches == (victim,)
    text = result.describe()
    assert text.startswith("FAIL[digest] phold backend=parallel workers=2 ")
    assert "gvt_period=1000.0" in text and f"['{victim}']" in text


def test_modelled_pivot_passes_all_checks():
    result = run_scenario(Scenario())
    assert result.ok, result.describe()
    assert result.digest_match and result.trace_match
    assert result.committed == result.expected > 0
    assert result.oracle_checks > 0
    assert "backend:modelled" in result.features


def test_knob_variants_reproduce_the_golden_digest():
    golden = run_scenario(Scenario())
    for changes in (
        {"cancellation": "lazy"},
        {"checkpoint": 16},
        {"aggregation": "saaw"},
        {"meta_control": "on"},
        {"gvt_algorithm": "mattern"},
        {"lp_speed_factors": {"0": 3.0}},
        {"faults": {"seed": 9, "rates": {"drop": 0.1}}},
    ):
        result = run_scenario(Scenario(**changes))
        assert result.ok, result.describe()
        assert result.digest == golden.digest, changes


def test_script_coverage_counts_only_steps_that_ran():
    # pingpong quiesces long before the first GVT tick at 200 000 us, so
    # no commit ever comes and its step never runs
    step = {"at": 1, "kind": "set", "knob": "time_window", "value": 50.0}
    idle = Scenario(
        app="pingpong", gvt_period=200_000.0, script={"seed": 0, "steps": [step]}
    )
    result = run_scenario(idle)
    assert result.ok, result.describe()
    assert result.raw["steps_run"] == 0
    assert "script:on" not in result.features
    assert "script:unrun" in result.features
    # the default period commits often enough for the same step to run
    ran = run_scenario(idle.with_(gvt_period=5_000.0))
    assert ran.raw["steps_run"] == 1
    assert "script:on" in ran.features


def test_conservative_backend_matches_golden():
    result = run_scenario(Scenario(app="smmp", backend="conservative"))
    assert result.ok, result.describe()
    assert result.trace_match is True


@needs_fork
def test_parallel_backend_matches_golden():
    result = run_scenario(Scenario(backend="parallel", workers=2))
    assert result.ok, result.describe()
    assert result.trace_match is None  # no trace across processes
    assert "backend:parallel:2" in result.features


def test_run_is_deterministic_across_invocations():
    first = run_scenario(Scenario(app="raid", cancellation="dynamic"))
    second = run_scenario(Scenario(app="raid", cancellation="dynamic"))
    assert first.digest == second.digest
    assert first.committed == second.committed


def test_crash_is_a_finding_not_an_abort(monkeypatch):
    import repro.verify.runner as runner_mod

    class Boom:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "TimeWarpSimulation", Boom)
    result = run_scenario(Scenario())
    assert result.failure_kind == "error:RuntimeError"
    assert "boom" in result.error


def test_failure_kind_ordering():
    r = ScenarioResult(scenario=Scenario())
    r.error = "ValueError: boom"
    assert r.failure_kind == "error:ValueError"
    r.error = ""
    r.violations = ("gvt_monotonic",)
    assert r.failure_kind == "violation:gvt_monotonic"
    r.violations = ()
    assert r.failure_kind == "digest"
    r.digest_match = True
    r.trace_match = False
    assert r.failure_kind == "trace"
    r.trace_match = True
    assert r.ok
