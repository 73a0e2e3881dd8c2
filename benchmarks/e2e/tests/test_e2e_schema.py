"""BENCHMARK.json against the contract, and the real output against it.

The two end-to-end checks at the bottom launch the benchmark for real
(about half a minute together); everything above them is static.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trace import LAYERS
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[3]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 15) <= 3420  # ~15 s of set-up per run


def test_names_units_and_bounds():
    names = [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            expected = {"name", "unit", "better"} | ({"bound"} if kind == "end_to_end" else set())
            assert set(metric) == expected, metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
            names.append(metric["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_every_layer_has_its_two_profile_metrics():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls_per_event"} <= names


# --------------------------------------------------------------------- #
def _run(*args):
    done = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _check_result(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for metric in metrics:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.slow
def test_end_to_end_output_schema():
    lines, result = _run("--workload", "phold_skew", "--seed", "3",
                         "--seconds", "1", "--trace", "0")
    _check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = [ln for ln in lines if ln.startswith("phold_skew.")]
    for metric in SPEC["end_to_end"]:
        assert any(
            ln.startswith(f"phold_skew.{metric['name']} = ") and metric["unit"] in ln
            for ln in printed
        )


@pytest.mark.slow
def test_per_layer_output_schema_on_the_process_backend():
    lines, result = _run("--workload", "par_cross_2w", "--seed", "3", "--trace", "1")
    _check_result(result, SPEC["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # the trace pass emitted every name the spec lists (none silently 0)
    printed = {ln.split(" = ")[0].split(".", 1)[1] for ln in lines if " = " in ln}
    assert printed == set(values)
    for layer in ("parallel.backend", "parallel.worker", "parallel.gvt",
                  "parallel.wire", "parallel.shm"):
        assert values[f"{layer}.self_share"] > 0
    assert values["bench.trace_overhead_x"] > 1.0
    assert values["parallel.shm.leaked_segments"] == 0
