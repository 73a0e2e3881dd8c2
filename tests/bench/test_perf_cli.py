"""End-to-end tests for the CLI subcommands, the perf gate and the
schema drift-guard against docs/benchmarking.md."""

import json
import re
from pathlib import Path

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.perf.report import load_document, make_document, write_document
from repro.bench.perf.suite import run_suite

REPO_ROOT = Path(__file__).resolve().parents[2]

#: fast deterministic benchmark used by the CLI round trips
FAST = "queue.insert_pop"


def _quick_doc(only: str = FAST):
    results = run_suite(quick=True, reps=1, warmup=0, only=only)
    return make_document(results, quick=True, reps=1, warmup=0)


class TestSubcommandSpellings:
    def test_perf_subcommand(self, capsys, tmp_path):
        out = tmp_path / "BENCH_3.json"
        rc = cli_main(["perf", "--quick", "--reps", "1", "--warmup", "0",
                       "--only", FAST, "--out", str(out)])
        assert rc == 0
        doc = load_document(out)
        assert FAST in doc["benchmarks"]
        assert "perf suite" in capsys.readouterr().out

    def test_figures_subcommand(self, capsys):
        rc = cli_main(["figures", "--fig", "baseline", "--scale", "0.01",
                       "--replicates", "1"])
        assert rc == 0
        assert "SMMP baseline" in capsys.readouterr().out

    def test_figures_subcommand_requires_target(self):
        with pytest.raises(SystemExit):
            cli_main(["figures"])

    def test_faults_subcommand(self, capsys):
        rc = cli_main(["faults", "--plans", "2"])
        assert rc == 0
        assert "fuzzed" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("argv", [
        ["bogus-subcommand"], ["--fig", "baseline"], ["--perf"], ["--faults"],
    ])
    def test_non_subcommand_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert "figures" in capsys.readouterr().err  # argparse lists them


class TestPerfGate:
    def test_fail_on_regress_requires_compare(self):
        with pytest.raises(SystemExit, match="--compare"):
            cli_main(["perf", "--quick", "--only", FAST, "--out", "-",
                      "--fail-on-regress", "25"])

    def test_identical_baseline_passes(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_document(_quick_doc(), baseline)
        rc = cli_main(["perf", "--quick", "--reps", "1", "--warmup", "0",
                       "--only", FAST, "--out", "-",
                       "--compare", str(baseline), "--fail-on-regress", "99"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, capsys, tmp_path):
        doc = _quick_doc()
        # a baseline this fast is unbeatable: the current run must regress
        doc["benchmarks"][FAST]["rate_per_s"] = 1e15
        baseline = tmp_path / "baseline.json"
        write_document(doc, baseline)
        rc = cli_main(["perf", "--quick", "--reps", "1", "--warmup", "0",
                       "--only", FAST, "--out", "-",
                       "--compare", str(baseline), "--fail-on-regress", "25"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "FAIL" in out

    def test_counter_drift_exits_nonzero(self, capsys, tmp_path):
        doc = _quick_doc()
        doc["benchmarks"][FAST]["counters"]["events"] += 1
        baseline = tmp_path / "baseline.json"
        write_document(doc, baseline)
        rc = cli_main(["perf", "--quick", "--reps", "1", "--warmup", "0",
                       "--only", FAST, "--out", "-",
                       "--compare", str(baseline), "--fail-on-regress", "99"])
        assert rc == 1
        assert "COUNTER DRIFT" in capsys.readouterr().out


class TestDeterminism:
    def test_two_quick_runs_agree_exactly(self):
        """Two separate --perf --quick runs must report identical operation
        counts and model counters (timings are the only run-to-run noise)."""
        first = _quick_doc(only="macro.phold")
        second = _quick_doc(only="macro.phold")
        a = first["benchmarks"]["macro.phold"]
        b = second["benchmarks"]["macro.phold"]
        assert a["ops"] == b["ops"]
        assert a["counters"] == b["counters"]
        assert a["counters"]["committed_events"] == a["ops"]

    def test_committed_baseline_counters_still_reproduce(self):
        """The committed CI baseline's deterministic side must match what
        the code produces today — otherwise the perf-smoke gate is red and
        the baseline needs a refresh (docs/benchmarking.md)."""
        baseline_path = REPO_ROOT / "benchmarks" / "baseline.json"
        baseline = load_document(baseline_path)
        entry = baseline["benchmarks"][FAST]
        current = _quick_doc()["benchmarks"][FAST]
        assert current["counters"] == entry["counters"]
        assert current["ops"] == entry["ops"]


class TestSchemaDriftGuard:
    """docs/benchmarking.md's schema tables and the emitter must agree."""

    @staticmethod
    def _documented_fields() -> set[str]:
        text = (REPO_ROOT / "docs" / "benchmarking.md").read_text()
        # first table cell, backticked: "| `field` | ..."
        fields = set(re.findall(r"^\| `([^`]+)` \|", text, flags=re.M))
        # benchmark names (dotted) live in a different table; drop them
        return {f for f in fields if "." not in f}

    def test_every_emitted_field_is_documented(self):
        doc = _quick_doc()
        emitted = set(doc) | set(doc["benchmarks"][FAST])
        documented = self._documented_fields()
        assert emitted <= documented, (
            f"undocumented fields {sorted(emitted - documented)}: "
            "add them to the schema tables in docs/benchmarking.md"
        )

    def test_every_documented_field_is_emitted(self):
        doc = _quick_doc()
        emitted = set(doc) | set(doc["benchmarks"][FAST])
        documented = self._documented_fields()
        assert documented <= emitted, (
            f"stale documented fields {sorted(documented - emitted)}: "
            "docs/benchmarking.md describes fields the emitter no longer "
            "writes (src/repro/bench/perf/report.py)"
        )

    def test_committed_baseline_is_schema_valid(self):
        baseline = load_document(REPO_ROOT / "benchmarks" / "baseline.json")
        assert baseline["quick"] is True
        for entry in baseline["benchmarks"].values():
            assert {"kind", "unit", "ops", "rate_per_s", "wall_min_s",
                    "wall_median_s", "wall_mean_s", "wall_stddev_s",
                    "counters"} <= set(entry)

    def test_baseline_parses_as_plain_json(self):
        raw = json.loads((REPO_ROOT / "benchmarks" / "baseline.json").read_text())
        assert raw["schema_version"] == 3
