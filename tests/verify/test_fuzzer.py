"""Coverage map and coverage-guided generation."""

import random

from repro.verify import CoverageMap, run_fuzz
from repro.verify.fuzzer import generate_scenario
from repro.verify.lattice import sweep_scenarios


def test_coverage_map_tracks_novelty():
    cov = CoverageMap()
    fresh = cov.add({"a:1", "b:2"})
    assert fresh == {"a:1", "b:2"}
    assert cov.add({"a:1", "c:3"}) == {"c:3"}
    assert cov.seen("a:1") == 2
    assert cov.covered("a:") == ["a:1"]
    assert "3 feature(s) over 2 run(s)" in cov.render()


def test_generation_is_seeded_and_valid():
    def generate(n):
        rng = random.Random(7)
        cov = CoverageMap()
        out = []
        for i in range(n):
            scenario = generate_scenario(rng, cov, seed=i, allow_parallel=False)
            scenario.validate()
            cov.add({f"cancel:{scenario.cancellation}",
                     f"backend:{scenario.backend}"})
            out.append(scenario)
        return out

    assert generate(25) == generate(25)


def test_generation_biases_toward_unseen_features():
    rng = random.Random(3)
    cov = CoverageMap()
    # saturate everything except one cancellation variant
    for _ in range(200):
        cov.add({f"cancel:{v}" for v in
                 ("aggressive", "lazy", "dynamic", "st", "pa10")})
    picks = [
        generate_scenario(rng, cov, seed=i, allow_parallel=False).cancellation
        for i in range(60)
    ]
    # uniform drawing would give ~10 ps32 picks; the bias should give far more
    assert picks.count("ps32") > 20


def test_small_fuzz_is_deterministic_and_clean(tmp_path):
    first = run_fuzz(6, seed=5, out_dir=tmp_path, allow_parallel=False)
    second = run_fuzz(6, seed=5, out_dir=tmp_path, allow_parallel=False)
    assert first.ok, [f.result.describe() for f in first.failures]
    assert [r.scenario for r in first.results] == [
        r.scenario for r in second.results
    ]
    assert [r.digest for r in first.results] == [
        r.digest for r in second.results
    ]
    assert first.coverage.counts == second.coverage.counts
    assert not list(tmp_path.glob("repro_*.json"))
    assert "backend:" in first.render()


def test_sweep_covers_every_axis_value():
    scenarios = list(sweep_scenarios(("phold",), include_backends=False))
    assert len({s.scenario_id() for s in scenarios}) == len(scenarios)
    assert {s.cancellation for s in scenarios} >= {
        "aggressive", "lazy", "dynamic", "st", "ps32", "pa10"
    }
    assert "dynamic" in {s.checkpoint for s in scenarios}
    assert {s.meta_control for s in scenarios} == {"off", "on"}


def test_parallel_runs_report_the_safe_path_and_the_workers_oracle_kinds():
    from collections import Counter

    from repro.stats.counters import RunStats
    from repro.verify import Scenario
    from repro.verify.coverage import features_for

    stats = RunStats()
    stats.committed_at_once = 42
    raw = {"stats": stats, "checks_by_kind": Counter(lookahead_safety=3)}
    parallel = features_for(
        Scenario(app="phold", backend="parallel", workers=2), None, raw
    )
    assert {"safe:10-99", "oracle:lookahead_safety"} <= parallel
    modelled = features_for(Scenario(app="phold"), None, {"stats": stats})
    assert not any(feature.startswith("safe:") for feature in modelled)
