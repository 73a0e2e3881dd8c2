"""Differential validation of the parallel backend (``repro-bench parallel``).

A process-sharded run is not tick-for-tick deterministic — the OS
schedule decides which stragglers arrive late and therefore how many
rollbacks happen — so the backend is validated on its *committed
result*, which must be schedule-invariant and equal to the sequential
golden.  This module is the option table that turns the command line
into verify scenarios; the one differential harness
(:func:`repro.verify.runner.run_scenario`) checks each of them:

1. per-object committed counts and canonical final states digest equal
   to the sequential kernel's (a mismatch names the differing objects);
2. the invariant oracle, armed inside every worker plus the parent's
   global wire check, reports zero violations.

``main`` also backs the CI ``parallel-smoke`` job (docs/parallel.md).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..faults.fuzz import END_TIMES
from ..kernel.errors import ConfigurationError
from ..verify.runner import run_and_report
from ..verify.scenario import Scenario

#: ``--elastic-smoke``: one scripted migration plus one worker leave, on
#: a GVT period short enough that both commit indices are reached
ELASTIC_SMOKE_SCRIPT = {
    "seed": 7,
    "steps": [
        {"at": 1, "kind": "migrate", "count": 1},
        {"at": 2, "kind": "leave", "count": 1},
    ],
}
ELASTIC_SMOKE_GVT_PERIOD = 5_000.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench parallel",
        description="differentially validate the process-sharded backend",
    )
    parser.add_argument(
        "--app", action="append", choices=sorted(END_TIMES),
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
        "--script", default=None, metavar="JSON",
        help="run script of elastic steps as inline JSON "
             '(e.g. \'{"seed":7,"steps":[{"at":1,"kind":"migrate","count":2}]}\')',
    )
    parser.add_argument(
        "--elastic-smoke", action="store_true",
        help="canned elasticity check: one scripted migration plus one "
             "worker leave, differential against the sequential golden",
    )
    parser.add_argument(
        "--gvt-period", type=float, default=None,
        help="wall-clock GVT period in microseconds (scripts want a "
             "short one so every step's commit index is reached)",
    )
    return parser


def scenarios_from_args(args: argparse.Namespace) -> list[Scenario]:
    """One validated parallel-backend scenario per requested app.

    Raises :class:`ConfigurationError` (or ``json.JSONDecodeError``) on a
    bad ``--script`` — before anything is forked.
    """
    script = json.loads(args.script) if args.script else None
    gvt_period = args.gvt_period
    if args.elastic_smoke:
        if script is not None:
            raise ConfigurationError("--elastic-smoke supplies its own script")
        script = ELASTIC_SMOKE_SCRIPT
        if gvt_period is None:
            gvt_period = ELASTIC_SMOKE_GVT_PERIOD
    knobs = {} if gvt_period is None else {"gvt_period": gvt_period}
    scenarios = [
        Scenario(
            app=app, end_time=END_TIMES[app], backend="parallel",
            workers=args.workers, script=script, **knobs,
        )
        for app in args.app or sorted(END_TIMES)
    ]
    for scenario in scenarios:
        scenario.validate()
    return scenarios


def main(argv=None) -> int:
    """``repro-bench parallel`` entry: differential runs, exit 1 on FAIL."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenarios = scenarios_from_args(args)
    except (json.JSONDecodeError, ConfigurationError) as exc:
        parser.error(f"{type(exc).__name__}: {exc}")
    return run_and_report(
        scenarios, "parallel", verbose=True,
        timeout_s=args.timeout, trace_dir=args.trace_dir,
        strategy=args.strategy,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
