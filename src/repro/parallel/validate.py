"""Differential validation of the parallel backend.

A process-sharded run is not tick-for-tick deterministic — the OS
schedule decides which stragglers arrive late and therefore how many
rollbacks happen — so the backend is validated the way the fault
harness validates the modelled kernel (:mod:`repro.faults.fuzz`): the
*committed result* must be schedule-invariant and equal to the
sequential golden.  Concretely, for an app from the shared
:data:`repro.faults.fuzz.APPS` registry:

1. total committed events == the sequential kernel's executed events;
2. per-object committed counts match the sequential trace exactly;
3. final object states compare equal (plain dataclass ``==``);
4. the invariant oracle, armed inside every worker plus the parent's
   global wire check, reports zero violations.

``main`` backs the ``repro-bench parallel`` CLI subcommand and the CI
``parallel-smoke`` job (docs/parallel.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

from ..faults.fuzz import APPS
from ..kernel.config import SimulationConfig
from ..oracle.invariants import InvariantOracle
from ..sequential import SequentialSimulation
from .backend import ParallelSimulation

#: Safety valve: a livelocked shard aborts instead of hanging the run.
MAX_EXECUTED_EVENTS = 500_000

_golden_cache: dict[str, tuple[Counter, dict, int]] = {}


def sequential_golden(app: str) -> tuple[Counter, dict, int]:
    """``(per-object executed counts, final states, total)`` — cached."""
    cached = _golden_cache.get(app)
    if cached is None:
        build, end_time = APPS[app]
        seq = SequentialSimulation(
            [obj for group in build() for obj in group],
            record_trace=True,
            end_time=end_time,
        )
        seq.run()
        per_object = Counter(entry[1] for entry in seq.trace)
        states = {obj.name: obj.state for obj in seq.objects}
        cached = _golden_cache[app] = (per_object, states, seq.events_executed)
    return cached


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one parallel-vs-sequential differential run."""

    app: str
    workers: int
    committed: int
    expected: int
    #: (object, parallel committed, sequential executed) disagreements
    count_mismatches: tuple[tuple[str, int, int], ...]
    #: object names whose final state differs
    state_mismatches: tuple[str, ...]
    violations: tuple[str, ...]
    oracle_checks: int
    rollbacks: int
    gvt_rounds: int
    wall_s: float
    error: str = ""
    #: ``(commit_index, active_workers)`` steps; more than one entry means
    #: the worker set changed mid-run (churn joins/leaves)
    worker_timeline: tuple[tuple[int, int], ...] = ()
    #: checkpoints restored across shard boundaries during the run
    migrations: int = 0
    #: inter-shard data wire actually used ("shm" or "queue")
    wire: str = "shm"

    @property
    def elastic(self) -> bool:
        """Whether the worker set changed or objects moved mid-run."""
        return self.migrations > 0 or len(self.worker_timeline) > 1

    @property
    def ok(self) -> bool:
        return (
            not self.error
            and self.committed == self.expected
            and not self.count_mismatches
            and not self.state_mismatches
            and not self.violations
        )

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status} {self.app} workers={self.workers} wire={self.wire}: "
            f"committed {self.committed}/{self.expected}, "
            f"{self.rollbacks} rollback(s), {self.gvt_rounds} GVT round(s), "
            f"{self.oracle_checks} oracle check(s), {self.wall_s:.2f}s wall"
        ]
        if self.elastic:
            timeline = " -> ".join(
                f"{n}w@{at}" for at, n in self.worker_timeline
            )
            lines.append(
                f"  elastic: {self.migrations} migration(s), "
                f"workers {timeline}"
            )
        if self.error:
            lines.append(f"  error: {self.error}")
        for name, got, want in self.count_mismatches:
            lines.append(f"  count mismatch {name}: parallel={got} sequential={want}")
        for name in self.state_mismatches:
            lines.append(f"  final-state mismatch: {name}")
        for violation in self.violations:
            lines.append(f"  invariant violation: {violation}")
        return "\n".join(lines)


def run_differential(
    app: str,
    workers: int,
    *,
    strategy="kernighan_lin",
    timeout_s: float = 120.0,
    trace_dir: str | None = None,
    churn: dict | None = None,
    gvt_period: float | None = None,
    wire: str | None = None,
) -> DifferentialResult:
    """One differential run of ``app`` over ``workers`` shards.

    ``churn`` is a seeded elasticity plan (migrations and worker
    join/leave keyed by GVT-commit index; see
    :func:`repro.kernel.config.validate_churn_plan`) — the committed
    result must match the golden regardless.  Steps the fleet quiesces
    past fire on the quiet fleet, so every feasible step takes effect.
    ``wire`` selects the inter-shard data path ("shm"/"queue"; ``None``
    keeps the config default) — both must commit identical results,
    which is exactly what the CI parity matrix checks.
    """
    build, end_time = APPS[app]
    golden_counts, golden_states, expected = sequential_golden(app)
    config = SimulationConfig(
        backend="parallel",
        workers=workers,
        end_time=end_time,
        oracle=InvariantOracle(),
        max_executed_events=MAX_EXECUTED_EVENTS,
        churn=churn,
        **({} if gvt_period is None else {"gvt_period": gvt_period}),
        **({} if wire is None else {"wire": wire}),
    )
    started = time.perf_counter()
    error = ""
    wire_used = config.wire
    committed = rollbacks = gvt_rounds = oracle_checks = 0
    count_mismatches: list[tuple[str, int, int]] = []
    state_mismatches: list[str] = []
    violations: tuple[str, ...] = ()
    worker_timeline: tuple[tuple[int, int], ...] = ((0, workers),)
    migrations = 0
    try:
        sim = ParallelSimulation.from_builder(
            build, config, strategy=strategy,
            trace_dir=trace_dir, timeout_s=timeout_s,
        )
        stats = sim.run()
        wire_used = sim.wire
        committed = stats.committed_events
        rollbacks = stats.rollbacks
        gvt_rounds = sim.gvt_rounds_run
        oracle_checks = sim.oracle_checks
        violations = tuple(
            f"shard {shard}: {violation}" for shard, violation in sim.violations
        )
        worker_timeline = tuple(sim.worker_timeline)
        migrations = sim.migrations_in
        for name in sorted(golden_states):
            got = stats.per_object[name].events_committed
            want = golden_counts.get(name, 0)
            if got != want:
                count_mismatches.append((name, got, want))
            if sim.final_states[name] != golden_states[name]:
                state_mismatches.append(name)
    except Exception as exc:  # a crash is a finding, not a harness abort
        error = f"{type(exc).__name__}: {exc}"
    return DifferentialResult(
        app=app,
        workers=workers,
        committed=committed,
        expected=expected,
        count_mismatches=tuple(count_mismatches),
        state_mismatches=tuple(state_mismatches),
        violations=violations,
        oracle_checks=oracle_checks,
        rollbacks=rollbacks,
        gvt_rounds=gvt_rounds,
        wall_s=time.perf_counter() - started,
        error=error,
        worker_timeline=worker_timeline,
        migrations=migrations,
        wire=wire_used,
    )


def main(argv=None) -> int:
    """``repro-bench parallel`` entry: differential runs, exit 1 on FAIL."""
    parser = argparse.ArgumentParser(
        prog="repro-bench parallel",
        description="differentially validate the process-sharded backend",
    )
    parser.add_argument(
        "--app", action="append", choices=sorted(APPS),
        help="application to validate (repeatable; default: all)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--strategy", default="kernighan_lin",
        choices=("kernighan_lin", "greedy_growth", "round_robin"),
    )
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument(
        "--trace-dir", default=None,
        help="write per-shard JSONL traces under this directory",
    )
    parser.add_argument(
        "--churn", default=None, metavar="JSON",
        help="elasticity plan as inline JSON "
             '(e.g. \'{"seed":7,"steps":[{"at":1,"kind":"migrate","count":2}]}\')',
    )
    parser.add_argument(
        "--elastic-smoke", action="store_true",
        help="canned elasticity check: one scripted migration plus one "
             "worker leave, differential against the sequential golden",
    )
    parser.add_argument(
        "--wire", default=None, choices=("shm", "queue"),
        help="inter-shard data wire (default: the config default, shm); "
             "the CI parity matrix runs both and compares digests",
    )
    parser.add_argument(
        "--gvt-period", type=float, default=None,
        help="wall-clock GVT period in microseconds (churn plans want a "
             "short one so every step's commit index is reached)",
    )
    args = parser.parse_args(argv)
    apps = args.app or sorted(APPS)
    churn = json.loads(args.churn) if args.churn else None
    gvt_period = args.gvt_period
    if args.elastic_smoke:
        if churn is not None:
            parser.error("--elastic-smoke supplies its own churn plan")
        churn = {
            "seed": 7,
            "steps": [
                {"at": 1, "kind": "migrate", "count": 1},
                {"at": 2, "kind": "leave", "count": 1},
            ],
        }
        if gvt_period is None:
            gvt_period = 5_000.0
    results = [
        run_differential(
            app, args.workers,
            strategy=args.strategy, timeout_s=args.timeout,
            trace_dir=args.trace_dir, churn=churn, gvt_period=gvt_period,
            wire=args.wire,
        )
        for app in apps
    ]
    for result in results:
        print(result.render())
    failed = [r for r in results if not r.ok]
    print("PASS" if not failed else f"FAIL ({len(failed)} app(s))")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
