"""Unit tests for the perf-suite measurement and document machinery."""

import pytest

from repro.bench.perf.report import (
    SCHEMA_VERSION,
    compare_documents,
    load_document,
    make_document,
    render_document,
    write_document,
)
from repro.bench.perf.suite import REGISTRY, Benchmark, run_suite
from repro.bench.perf.timing import Measurement, TimingStats, measure


class TestTimingStats:
    def test_from_times(self):
        stats = TimingStats.from_times([0.3, 0.1, 0.2], warmup=1)
        assert stats.reps == 3
        assert stats.warmup == 1
        assert stats.min_s == 0.1
        assert stats.median_s == 0.2
        assert stats.mean_s == pytest.approx(0.2)
        assert stats.stddev_s == pytest.approx(0.0816496580927726)

    def test_even_count_median(self):
        stats = TimingStats.from_times([0.1, 0.2, 0.3, 0.4], warmup=0)
        assert stats.median_s == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimingStats.from_times([], warmup=0)


class TestMeasure:
    def test_counts_reps_and_returns_counters(self):
        calls = []

        def workload():
            calls.append(1)
            return 10, {"k": 1}

        m = measure(workload, reps=3, warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert m.ops == 10
        assert m.counters == {"k": 1}
        assert m.timing.reps == 3

    def test_rate_uses_min(self):
        m = Measurement(
            timing=TimingStats(reps=2, warmup=0, min_s=0.5, median_s=1.0,
                               mean_s=0.75, stddev_s=0.25),
            ops=100,
            counters={},
        )
        assert m.rate_per_s == pytest.approx(200.0)

    def test_nondeterminism_raises(self):
        results = iter([(1, {"n": 1}), (1, {"n": 2})])

        with pytest.raises(RuntimeError, match="non-deterministic"):
            measure(lambda: next(results), reps=2, warmup=0)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            measure(lambda: (1, {}), reps=0)
        with pytest.raises(ValueError):
            measure(lambda: (1, {}), reps=1, warmup=-1)


class TestRegistry:
    EXPECTED = {
        "queue.insert_pop", "queue.annihilate",
        "snapshot.copy", "snapshot.pickle", "snapshot.array",
        "rollback.storm", "gvt.local_min",
        "macro.phold", "macro.smmp", "macro.raid",
        "parallel.phold", "parallel.phold.1w",
        "parallel.smmp", "parallel.smmp.1w",
    }

    def test_registered_benchmarks(self):
        assert set(REGISTRY) == self.EXPECTED

    def test_kinds_and_units(self):
        for name, bench in REGISTRY.items():
            macro = name.startswith(("macro.", "parallel."))
            assert bench.kind == ("macro" if macro else "micro")
            assert bench.unit in {"ops", "events"}

    def test_parallel_provenance(self):
        for name, bench in REGISTRY.items():
            if name.startswith("parallel."):
                assert bench.backend == "parallel"
                assert bench.workers == (1 if name.endswith(".1w") else 2)
                if name.endswith(".1w"):
                    # single worker resolves to no inter-shard wire; the
                    # registration must match the path actually run
                    assert bench.wire is None
                else:
                    assert bench.wire == "shm"
            else:
                assert bench.backend == "modelled"
                assert bench.workers == 1
                assert bench.wire is None

    def test_unknown_only_rejected(self):
        with pytest.raises(ValueError, match="no benchmark matches"):
            run_suite(only="nope.nothing")


def _fake_results(rate_s: float = 0.1, counters: dict | None = None,
                  backend: str = "modelled", workers: int = 1):
    bench = Benchmark(name="fake.bench", kind="micro", unit="ops",
                      make=lambda quick: (lambda: (0, {})),
                      backend=backend, workers=workers)
    m = Measurement(
        timing=TimingStats(reps=1, warmup=0, min_s=rate_s, median_s=rate_s,
                           mean_s=rate_s, stddev_s=0.0),
        ops=100,
        counters=counters if counters is not None else {"events": 7},
    )
    return {"fake.bench": (bench, m)}


def _make_doc(**kwargs):
    return make_document(_fake_results(**kwargs), quick=True, reps=1, warmup=0)


class TestDocument:
    def test_schema_fields(self):
        doc = _make_doc()
        assert doc["schema_version"] == SCHEMA_VERSION
        entry = doc["benchmarks"]["fake.bench"]
        assert entry["ops"] == 100
        assert entry["rate_per_s"] == pytest.approx(1000.0)
        assert entry["counters"] == {"events": 7}
        assert entry["backend"] == "modelled"
        assert entry["workers"] == 1

    def test_parallel_provenance_emitted(self):
        doc = _make_doc(backend="parallel", workers=2)
        entry = doc["benchmarks"]["fake.bench"]
        assert entry["backend"] == "parallel"
        assert entry["workers"] == 2

    def test_worker_timeline_defaults_flat(self):
        entry = _make_doc()["benchmarks"]["fake.bench"]
        assert entry["worker_timeline"] == [[0, 1]]

    def test_worker_timeline_counter_lifted_into_provenance(self):
        # an elastic run reports its trajectory as a counter; the document
        # promotes it to provenance and keeps it out of the perf counters
        doc = _make_doc(
            backend="parallel", workers=2,
            counters={"events": 7,
                      "worker_timeline": [[0, 2], [1, 3], [3, 1]]},
        )
        entry = doc["benchmarks"]["fake.bench"]
        assert entry["worker_timeline"] == [[0, 2], [1, 3], [3, 1]]
        assert entry["counters"] == {"events": 7}

    def test_speedup_line_rendered(self):
        doc = _make_doc(backend="parallel", workers=2, rate_s=0.1)  # 1000/s
        single = _make_doc(backend="parallel", workers=1, rate_s=0.15)
        doc["benchmarks"]["fake.bench.1w"] = single["benchmarks"]["fake.bench"]
        text = render_document(doc)
        assert "1.50x speedup over 1 worker" in text

    def test_no_speedup_line_without_twin(self):
        doc = _make_doc(backend="parallel", workers=2)
        assert "speedup" not in render_document(doc)

    def test_write_load_roundtrip(self, tmp_path):
        doc = _make_doc()
        path = write_document(doc, tmp_path / "BENCH_3.json")
        assert load_document(path) == doc

    def test_load_rejects_wrong_schema(self, tmp_path):
        doc = _make_doc()
        doc["schema_version"] = 2
        path = write_document(doc, tmp_path / "BENCH_2.json")
        with pytest.raises(ValueError, match="schema_version"):
            load_document(path)

    def test_render(self):
        text = render_document(_make_doc())
        assert "fake.bench" in text
        assert "schema v3" in text


class TestComparison:
    def test_no_change_passes(self):
        doc = _make_doc()
        report = compare_documents(doc, doc, fail_on_regress=10.0)
        assert report.ok
        assert "PASS" in report.render()

    def test_injected_regression_fails(self):
        base = _make_doc(rate_s=0.1)      # 1000 ops/s
        current = _make_doc(rate_s=0.2)   # 500 ops/s: -50%
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert not report.ok
        assert [d.name for d in report.regressions] == ["fake.bench"]
        assert report.deltas[0].change_pct == pytest.approx(-50.0)
        text = report.render()
        assert "REGRESSION" in text and "FAIL" in text

    def test_improvement_passes(self):
        base = _make_doc(rate_s=0.2)
        current = _make_doc(rate_s=0.1)
        assert compare_documents(base, current, fail_on_regress=25.0).ok

    def test_small_drop_within_threshold_passes(self):
        base = _make_doc(rate_s=0.1)
        current = _make_doc(rate_s=0.11)  # -9.1%
        assert compare_documents(base, current, fail_on_regress=25.0).ok

    def test_counter_drift_fails_even_when_fast(self):
        base = _make_doc(counters={"events": 7})
        current = _make_doc(rate_s=0.01, counters={"events": 8})
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert not report.ok
        assert report.drifted[0].counter_drift == {"events": (7, 8)}
        assert "COUNTER DRIFT" in report.render()

    def test_one_sided_benchmarks_never_fail(self):
        base = _make_doc()
        current = _make_doc()
        current["benchmarks"]["new.bench"] = current["benchmarks"]["fake.bench"]
        base["benchmarks"]["old.bench"] = base["benchmarks"]["fake.bench"]
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert report.ok
        assert report.only_in_base == ["old.bench"]
        assert report.only_in_current == ["new.bench"]
        assert ("old.bench", "only in baseline") in report.incomparable
        assert ("new.bench", "only in current") in report.incomparable
        text = report.render()
        assert "incomparable: old.bench (only in baseline)" in text
        assert "incomparable: new.bench (only in current)" in text

    def test_backend_change_is_incomparable_not_drift(self):
        base = _make_doc(counters={"events": 7})
        # a huge "regression" plus counter drift — but the configuration
        # changed, so neither may fire
        current = _make_doc(rate_s=10.0, counters={"events": 999},
                            backend="parallel", workers=2)
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert report.ok
        assert report.deltas == []
        assert report.incomparable == [
            ("fake.bench", "backend/wire/workers changed: "
                           "modelled/1w -> parallel/2w")
        ]
        assert "incomparable: fake.bench" in report.render()

    def test_wire_change_is_incomparable(self):
        base = _make_doc(backend="parallel", workers=2)
        base["benchmarks"]["fake.bench"]["wire"] = "queue"
        current = _make_doc(backend="parallel", workers=2)
        current["benchmarks"]["fake.bench"]["wire"] = "shm"
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert report.ok
        assert report.incomparable[0][1].endswith(
            "parallel(queue)/2w -> parallel(shm)/2w")

    def test_worker_count_change_is_incomparable(self):
        base = _make_doc(backend="parallel", workers=2)
        current = _make_doc(backend="parallel", workers=4)
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert report.ok
        assert report.incomparable[0][1].endswith("parallel/2w -> parallel/4w")

    def test_identical_elastic_trajectories_stay_comparable(self):
        # a mid-run worker change is not "incomparable" per se — two runs
        # with the same churn trajectory are the same experiment
        timeline = {"worker_timeline": [[0, 2], [1, 3], [3, 1]]}
        base = _make_doc(backend="parallel", workers=2,
                         counters={"events": 7, **timeline})
        current = _make_doc(backend="parallel", workers=2,
                            counters={"events": 7, **timeline})
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert report.ok
        assert report.incomparable == []
        assert [d.name for d in report.deltas] == ["fake.bench"]

    def test_diverging_trajectories_render_both_timelines(self):
        base = _make_doc(backend="parallel", workers=2)
        current = _make_doc(
            backend="parallel", workers=2,
            counters={"events": 7,
                      "worker_timeline": [[0, 2], [2, 1]]},
        )
        report = compare_documents(base, current, fail_on_regress=25.0)
        assert report.ok
        assert report.incomparable == [
            ("fake.bench", "backend/wire/workers changed: "
                           "parallel/2w -> parallel/2w@0->1w@2")
        ]

    def test_pre_provenance_documents_default_to_modelled(self):
        # documents written before backend/workers were emitted compare
        # cleanly against fresh modelled entries
        base = _make_doc()
        for entry in base["benchmarks"].values():
            del entry["backend"], entry["workers"]
        report = compare_documents(base, _make_doc(), fail_on_regress=25.0)
        assert report.ok
        assert report.incomparable == []
        assert [d.name for d in report.deltas] == ["fake.bench"]

    def test_no_threshold_reports_without_gating(self):
        base = _make_doc(rate_s=0.1)
        current = _make_doc(rate_s=0.5)
        report = compare_documents(base, current)
        assert report.ok  # no threshold, no regressions
        assert "gate" not in report.render()

