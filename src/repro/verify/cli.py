"""``repro-verify`` — drive the deterministic simulation-testing harness.

Subcommands:

* ``sweep``  — enumerate the configuration-lattice axis sweep and run
  every point through the full check battery;
* ``fuzz``   — coverage-guided random exploration of the lattice
  interior, with shrinking and ``repro_*.json`` capture on failure;
* ``replay`` — re-execute scenario / corpus / repro files, twice by
  default, and demand byte-identical committed-state digests;
* ``corpus`` — replay every file in the checked-in corpus directory.

Exit status is 0 only when every run passed every check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import corpus_files, replay_file
from .fuzzer import run_fuzz
from .lattice import AXES, DEFAULT_APPS, sweep_scenarios
from .runner import run_and_report
from .scenario import APP_SPECS

DEFAULT_CORPUS_DIR = "tests/corpus"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="deterministic simulation testing for the Time Warp "
        "reproduction (docs/testing.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run the one-axis-at-a-time lattice sweep"
    )
    sweep.add_argument(
        "--app", action="append", choices=sorted(APP_SPECS), default=None,
        help="app(s) to sweep (default: phold, smmp, raid)",
    )
    sweep.add_argument(
        "--axis", action="append", choices=sorted(AXES), default=None,
        help="restrict to these axes (default: all)",
    )
    sweep.add_argument(
        "--no-backends", action="store_true",
        help="skip the conservative/parallel backend variants",
    )
    sweep.add_argument("-v", "--verbose", action="store_true")

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided lattice fuzzing with shrink + capture"
    )
    fuzz.add_argument("--budget", type=int, default=200,
                      help="number of scenarios to generate (default 200)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="generation seed (default 0)")
    fuzz.add_argument("--out", default=".",
                      help="directory for repro_*.json captures (default .)")
    fuzz.add_argument("--no-parallel", action="store_true",
                      help="never generate process-sharded scenarios")
    fuzz.add_argument("--shrink-budget", type=int, default=60,
                      help="max re-runs per shrink (default 60)")
    fuzz.add_argument("-v", "--verbose", action="store_true")

    replay = sub.add_parser(
        "replay", help="re-execute scenario/corpus/repro file(s)"
    )
    replay.add_argument("files", nargs="+", metavar="FILE")
    replay.add_argument(
        "--runs", type=int, default=2,
        help="times to execute each file; digests must agree (default 2)",
    )

    corpus = sub.add_parser(
        "corpus", help="replay every file in the corpus directory"
    )
    corpus.add_argument(
        "--dir", default=DEFAULT_CORPUS_DIR,
        help=f"corpus directory (default {DEFAULT_CORPUS_DIR})",
    )
    corpus.add_argument(
        "--runs", type=int, default=2,
        help="times to execute each entry (default 2)",
    )
    return parser


# --------------------------------------------------------------------- #
# subcommand drivers
# --------------------------------------------------------------------- #
def _cmd_sweep(args: argparse.Namespace) -> int:
    apps = tuple(args.app) if args.app else DEFAULT_APPS
    axes = tuple(args.axis) if args.axis else None
    return run_and_report(
        sweep_scenarios(apps, axes, include_backends=not args.no_backends),
        "sweep",
        verbose=args.verbose,
    )


def _cmd_fuzz(args: argparse.Namespace) -> int:
    def progress(index: int, result) -> None:
        if args.verbose:
            print(f"[{index + 1}/{args.budget}] {result.describe()}")
        elif not result.ok:
            print(result.describe())

    report = run_fuzz(
        args.budget,
        seed=args.seed,
        out_dir=args.out,
        allow_parallel=not args.no_parallel,
        shrink_budget=args.shrink_budget,
        progress=progress,
    )
    print(report.render())
    return 0 if report.ok else 1


def _replay_paths(paths: list[Path], runs: int) -> int:
    failures = 0
    for path in paths:
        outcome = replay_file(path, runs=runs)
        print(outcome.render())
        if not outcome.ok:
            failures += 1
    print(f"replay: {len(paths)} file(s), {failures} failure(s)")
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    return _replay_paths([Path(p) for p in args.files], args.runs)


def _cmd_corpus(args: argparse.Namespace) -> int:
    paths = corpus_files(args.dir)
    if not paths:
        print(f"corpus: no *.json files under {args.dir}", file=sys.stderr)
        return 1
    return _replay_paths(paths, args.runs)


_DRIVERS = {
    "sweep": _cmd_sweep,
    "fuzz": _cmd_fuzz,
    "replay": _cmd_replay,
    "corpus": _cmd_corpus,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _DRIVERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
