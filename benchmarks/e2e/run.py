"""End-to-end benchmark of the Time Warp simulator: one command, every metric.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--aa]

Without ``--workload`` (alias ``--only``) all four workloads run in turn.
``--trace 1`` runs the profiled per-layer pass instead of the end-to-end
one; ``--aa`` runs the end-to-end suite twice back to back and fails if
the two sets disagree by more than a metric's bound.  Every metric is
printed by name with its unit, every rep is verified against the
sequential golden, and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` (one workload)
or ``{"correct", "attempted", "failed", "workloads"}`` (several).

Host timings are in *reference seconds* (see probe.py and README.md).
The exit status is non-zero only when a workload has no successful rep,
a set-up launch fails, or ``--aa`` finds a disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from estimate import ref_seconds  # noqa: E402
from probe import PROBE_REF_S, run_probe  # noqa: E402

CHILD = HERE / "child.py"
RESULT_PREFIX = "RESULT "
#: fresh-interpreter launches behind one ``setup_s`` value
SETUP_LAUNCHES = 12
DEFAULT_SEED = 5
#: no single child may outlive the driver's per-run limit
CHILD_TIMEOUT_S = 170.0
RAW_RATE = "bench.wall_events_per_s"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None = None  # end-to-end metrics only


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workloads, metrics, units and bounds."""
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    for kind in ("end_to_end", "per_layer"):
        spec[kind] = tuple(
            Metric(m["name"], m["unit"], m["better"], m.get("bound"))
            for m in spec[kind]
        )
    spec["workloads"] = tuple(w["name"] for w in spec["workloads"])
    return spec


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed rep)."""


# --------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------- #
def child_command(mode: str, workload: str, seed: int, *extra: str) -> list[str]:
    return [
        sys.executable, str(CHILD), "--mode", mode,
        "--workload", workload, "--seed", str(seed), *extra,
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order (networkx KL) is input
    return env


@contextlib.contextmanager
def child_process(mode: str, workload: str, seed: int, *extra: str):
    """A child in its own process group.  However the block ends, no
    process of the group (the child, its shards) outlives it."""
    process = subprocess.Popen(
        child_command(mode, workload, seed, *extra), env=child_env(), cwd=REPO,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        yield process
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        raise
    finally:
        process.stdout.close()
        process.wait()


def run_child(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run one child to completion; its RESULT document."""
    with child_process(mode, workload, seed, *extra) as process:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    if process.returncode != 0:
        raise BenchmarkError(f"{mode} child for {workload} exited {process.returncode}")
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    raise BenchmarkError(f"{mode} child for {workload} printed no result")


def time_setup_launch(workload: str, seed: int) -> float:
    """Wall seconds from launching an interpreter to its READY line."""
    started = time.perf_counter()
    with child_process("setup", workload, seed) as process:
        ready = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.communicate(timeout=CHILD_TIMEOUT_S)
    if ready.strip() != "READY" or process.returncode != 0:
        raise BenchmarkError(
            f"set-up of {workload} failed (exit {process.returncode}, got {ready!r})"
        )
    return elapsed


def measure_setup(workload: str, seed: int, launches: int = SETUP_LAUNCHES) -> float:
    """``setup_s``: median reference seconds of ``launches`` fresh set-ups."""
    values = []
    before = run_probe()
    for _ in range(launches):
        wall = time_setup_launch(workload, seed)
        after = run_probe()
        values.append(ref_seconds(wall, before, after))
        before = after
    return statistics.median(values)


# --------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------- #
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One pass of one workload: the child's result document, to which the
    end-to-end pass adds ``setup_s`` (timed from out here)."""
    if trace:
        return run_child("trace", workload, seed)
    setup_s = measure_setup(workload, seed)
    result = run_child("measure", workload, seed, "--seconds", str(seconds))
    if result["metrics"]:
        result["metrics"]["setup_s"] = setup_s
    return result


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def print_result(result: dict, metrics: tuple[Metric, ...]) -> None:
    name = result["workload"]
    provenance = " ".join(f"{k}={v}" for k, v in sorted(result["provenance"].items()))
    print(f"== {name}  [{provenance}]")
    for metric in metrics:
        if metric.name not in result["metrics"]:
            continue  # does not apply to this workload
        bound = f"  bound {metric.bound:.1%}" if metric.bound is not None else ""
        print(
            f"{name}.{metric.name} = {result['metrics'][metric.name]:.6g} "
            f"{metric.unit}  ({metric.better} is better{bound})"
        )
    for key, value in result["bench"].items():
        print(f"{name}.{key} = {value:.6g}")
    print(
        f"{name}.reps attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for failure in result["failures"]:
        print(f"{name}.failed_rep {failure}")


def contract_line(result: dict, metrics: tuple[Metric, ...]) -> dict:
    """The driver's result object; inapplicable per-layer metrics read 0."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": result["metrics"].get(m.name, 0.0), "unit": m.unit}
            for m in metrics
        },
    }


def run_suite(workloads, seed: int, seconds: float, trace: bool, metrics) -> list[dict]:
    results = []
    for workload in workloads:
        result = run_workload(workload, seed, seconds, trace)
        print_result(result, metrics)
        results.append(result)
    return results


def compare_aa(first: list[dict], second: list[dict], end_to_end_metrics) -> bool:
    """Print both sets side by side; True when every metric agrees."""
    agree = True
    print("== A/A: two sets of runs of the same code")
    print(f"{'metric':44s} {'set A':>14s} {'set B':>14s} {'diff':>8s} {'bound':>7s}")
    for a, b in zip(first, second):
        for metric in end_to_end_metrics:
            va, vb = a["metrics"].get(metric.name), b["metrics"].get(metric.name)
            if va is None or vb is None:
                agree = False
                continue
            diff = (vb - va) / va
            verdict = "" if abs(diff) <= metric.bound else "  DISAGREE"
            agree = agree and not verdict
            print(
                f"{a['workload'] + '.' + metric.name:44s} {va:14.6g} {vb:14.6g} "
                f"{diff:+8.2%} {metric.bound:7.1%}{verdict}"
            )
        # the same reps on the raw wall clock: what normalising removed
        va, vb = a["bench"].get(RAW_RATE), b["bench"].get(RAW_RATE)
        if va and vb:
            print(
                f"{a['workload'] + '.' + RAW_RATE:44s} {va:14.6g} {vb:14.6g} "
                f"{(vb - va) / va:+8.2%} {'(raw)':>7s}"
            )
    return agree


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    spec = load_spec()
    parser.add_argument("--workload", "--only", choices=spec["workloads"], default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)
    if args.aa and args.trace:
        parser.error("--aa compares end-to-end metrics; run it without --trace")
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator source under {REPO / 'src'}", file=sys.stderr)
        return 2

    workloads = (args.workload,) if args.workload else spec["workloads"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"# seed={args.seed} seconds={args.seconds:g} PROBE_REF_S={PROBE_REF_S}")
    try:
        results = run_suite(workloads, args.seed, args.seconds, bool(args.trace), metrics)
        agree = True
        if args.aa:
            second = run_suite(workloads, args.seed, args.seconds, False, metrics)
            agree = compare_aa(results, second, metrics)
            results += second
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if any(not r["metrics"] for r in results):
        print("run.py: a workload had no successful rep", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = contract_line(results[0], metrics)
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            # after --aa: the second set
            "workloads": {
                r["workload"]: contract_line(r, metrics)["metrics"] for r in results
            },
        }
    print(json.dumps(line))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
