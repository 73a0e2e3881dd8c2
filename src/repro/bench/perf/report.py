"""``BENCH_<N>.json`` documents: emit, render, diff, gate.

One document captures one run of the perf suite, with enough provenance
(schema version, commit hash, python version, platform) for two documents
to be compared honestly.  The schema is documented in
``docs/benchmarking.md``; a drift-guard test keeps the table there and
the emitter here in lockstep.

Comparison semantics (the CI gate):

* a benchmark **regresses** when its ``rate_per_s`` falls more than the
  threshold below the baseline's — wall-clock rates are hardware-noisy,
  so the committed CI threshold is generous (25 %);
* **counter drift** (deterministic model counters differ) is reported
  separately: it means the two runs did different *work*, so their rates
  are not comparable and the baseline needs a refresh — that is a
  failure too, with its own message;
* benchmarks present on only one side, or measured under a different
  backend/worker configuration, are **incomparable**: reported with a
  reason, excluded from deltas, and never fail the gate (suites are
  allowed to grow and reconfigure).
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .suite import Benchmark
from .timing import Measurement

#: Version of the document schema; the output file is ``BENCH_<N>.json``.
SCHEMA_VERSION = 3

#: Default output path at the repository root.
DEFAULT_OUTPUT = f"BENCH_{SCHEMA_VERSION}.json"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def make_document(
    results: dict[str, tuple[Benchmark, Measurement]],
    *,
    quick: bool,
    reps: int,
    warmup: int,
) -> dict[str, Any]:
    """Assemble the versioned document for one suite run."""
    benchmarks: dict[str, Any] = {}
    for name, (bench, measurement) in results.items():
        timing = measurement.timing
        # the worker *timeline* is provenance, not a perf counter: lift it
        # out so elastic runs (worker join/leave mid-run) are compared by
        # trajectory instead of a single misleading worker count
        counters = dict(measurement.counters)
        timeline = counters.pop("worker_timeline", None)
        if not timeline:
            timeline = [[0, bench.workers]]
        benchmarks[name] = {
            "kind": bench.kind,
            "unit": bench.unit,
            "backend": bench.backend,
            "workers": bench.workers,
            # the inter-shard data path; null for modelled benchmarks,
            # which have no wire at all
            "wire": bench.wire,
            "worker_timeline": [[int(at), int(n)] for at, n in timeline],
            "ops": measurement.ops,
            "rate_per_s": round(measurement.rate_per_s, 3),
            "wall_min_s": timing.min_s,
            "wall_median_s": timing.median_s,
            "wall_mean_s": timing.mean_s,
            "wall_stddev_s": timing.stddev_s,
            "counters": counters,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "created_unix": int(time.time()),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "reps": reps,
        "warmup": warmup,
        "benchmarks": benchmarks,
    }


def write_document(document: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def load_document(path: str | Path) -> dict[str, Any]:
    document = json.loads(Path(path).read_text())
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} is not the supported "
            f"{SCHEMA_VERSION} (regenerate with `repro-bench perf`)"
        )
    return document


def render_document(document: dict[str, Any]) -> str:
    """Human-readable table of one document."""
    rows = [
        f"perf suite — schema v{document['schema_version']}, "
        f"python {document['python']}, "
        f"commit {(document.get('commit') or 'unknown')[:12]}, "
        f"{'quick' if document.get('quick') else 'full'} scale",
        "",
        f"{'benchmark':<22} {'kind':<6} {'rate':>14} {'min':>10} "
        f"{'median':>10} {'stddev':>10}",
    ]
    for name, entry in document["benchmarks"].items():
        rows.append(
            f"{name:<22} {entry['kind']:<6} "
            f"{entry['rate_per_s']:>10,.0f} {entry['unit']}/s"
            f" {entry['wall_min_s'] * 1e3:>8.2f}ms"
            f" {entry['wall_median_s'] * 1e3:>8.2f}ms"
            f" {entry['wall_stddev_s'] * 1e3:>8.2f}ms"
        )
    speedups = _speedup_lines(document["benchmarks"])
    if speedups:
        rows.append("")
        rows.extend(speedups)
    return "\n".join(rows)


def _speedup_lines(benchmarks: dict[str, Any]) -> list[str]:
    """Parallel speedup summary: each N-worker entry vs its ``.1w`` twin."""
    lines = []
    for name, entry in benchmarks.items():
        if entry.get("backend") != "parallel" or entry.get("workers", 1) < 2:
            continue
        single = benchmarks.get(f"{name}.1w")
        if single is None or not single["rate_per_s"]:
            continue
        ratio = entry["rate_per_s"] / single["rate_per_s"]
        lines.append(
            f"{name}: {ratio:.2f}x speedup over 1 worker "
            f"({entry['workers']} workers, "
            f"{entry['rate_per_s']:,.0f} vs {single['rate_per_s']:,.0f} "
            f"{entry['unit']}/s)"
        )
    return lines


# --------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------- #
@dataclass
class BenchmarkDelta:
    """One benchmark's baseline-to-current comparison."""

    name: str
    base_rate: float
    current_rate: float
    counter_drift: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    @property
    def change_pct(self) -> float:
        if self.base_rate <= 0.0:
            return 0.0
        return (self.current_rate - self.base_rate) / self.base_rate * 100.0


@dataclass
class ComparisonReport:
    """Outcome of diffing a current document against a baseline."""

    threshold_pct: float | None
    deltas: list[BenchmarkDelta] = field(default_factory=list)
    only_in_base: list[str] = field(default_factory=list)
    only_in_current: list[str] = field(default_factory=list)
    #: benchmarks excluded from the comparison entirely, with the reason
    #: (present on one side only, or run with a different backend/worker
    #: configuration).  Informational: never fails the gate.
    incomparable: list[tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchmarkDelta]:
        if self.threshold_pct is None:
            return []
        return [d for d in self.deltas if d.change_pct < -self.threshold_pct]

    @property
    def drifted(self) -> list[BenchmarkDelta]:
        return [d for d in self.deltas if d.counter_drift]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.drifted

    def render(self) -> str:
        rows = [
            f"{'benchmark':<22} {'baseline':>14} {'current':>14} {'change':>9}"
        ]
        for delta in self.deltas:
            marker = ""
            if self.threshold_pct is not None and delta in self.regressions:
                marker = "  << REGRESSION"
            elif delta.counter_drift:
                marker = "  << COUNTER DRIFT"
            rows.append(
                f"{delta.name:<22} {delta.base_rate:>14,.0f} "
                f"{delta.current_rate:>14,.0f} {delta.change_pct:>+8.1f}%{marker}"
            )
        for delta in self.drifted:
            for key, (base, current) in delta.counter_drift.items():
                rows.append(
                    f"  {delta.name}: counter {key!r} drifted "
                    f"{base!r} -> {current!r} (refresh the baseline: "
                    f"docs/benchmarking.md)"
                )
        for name, reason in self.incomparable:
            rows.append(f"incomparable: {name} ({reason})")
        if self.threshold_pct is not None:
            verdict = (
                "PASS"
                if self.ok
                else f"FAIL ({len(self.regressions)} regression(s), "
                f"{len(self.drifted)} drifted)"
            )
            rows.append(f"gate (fail-on-regress {self.threshold_pct:g}%): {verdict}")
        return "\n".join(rows)


def _worker_timeline(entry: dict[str, Any]) -> tuple[tuple[int, int], ...]:
    """``((commit_index, workers), ...)`` provenance, defaulting flat."""
    timeline = entry.get("worker_timeline")
    if timeline:
        return tuple((int(at), int(n)) for at, n in timeline)
    return ((0, int(entry.get("workers", 1))),)


def _render_cfg(
    backend: str,
    timeline: tuple[tuple[int, int], ...],
    wire: str | None = None,
) -> str:
    prefix = backend if wire is None else f"{backend}({wire})"
    if len(timeline) == 1:
        return f"{prefix}/{timeline[0][1]}w"
    return prefix + "/" + "->".join(f"{n}w@{at}" for at, n in timeline)


def compare_documents(
    base: dict[str, Any],
    current: dict[str, Any],
    *,
    fail_on_regress: float | None = None,
) -> ComparisonReport:
    """Diff two documents benchmark by benchmark.

    ``fail_on_regress`` is the allowed rate drop in percent; ``None``
    reports without gating.
    """
    report = ComparisonReport(threshold_pct=fail_on_regress)
    base_benchmarks = base["benchmarks"]
    current_benchmarks = current["benchmarks"]
    for name, base_entry in base_benchmarks.items():
        current_entry = current_benchmarks.get(name)
        if current_entry is None:
            report.only_in_base.append(name)
            report.incomparable.append((name, "only in baseline"))
            continue
        # Entries measured on different backends or worker trajectories
        # are different experiments — skip them rather than report a bogus
        # regression or drift.  Comparing the *timeline* rather than a
        # single worker count means two elastic runs with the same churn
        # trajectory stay comparable.  .get() defaults cover
        # pre-provenance documents (entries written before
        # backend/workers/worker_timeline were emitted).
        base_cfg = (base_entry.get("backend", "modelled"),
                    base_entry.get("wire"),
                    _worker_timeline(base_entry))
        current_cfg = (current_entry.get("backend", "modelled"),
                       current_entry.get("wire"),
                       _worker_timeline(current_entry))
        if base_cfg != current_cfg:
            report.incomparable.append((
                name,
                f"backend/wire/workers changed: "
                f"{_render_cfg(base_cfg[0], base_cfg[2], base_cfg[1])} -> "
                f"{_render_cfg(current_cfg[0], current_cfg[2], current_cfg[1])}",
            ))
            continue
        drift = {
            key: (base_value, current_entry["counters"].get(key))
            for key, base_value in base_entry["counters"].items()
            if current_entry["counters"].get(key) != base_value
        }
        report.deltas.append(
            BenchmarkDelta(
                name=name,
                base_rate=base_entry["rate_per_s"],
                current_rate=current_entry["rate_per_s"],
                counter_drift=drift,
            )
        )
    for name in current_benchmarks:
        if name not in base_benchmarks:
            report.only_in_current.append(name)
            report.incomparable.append((name, "only in current"))
    return report

