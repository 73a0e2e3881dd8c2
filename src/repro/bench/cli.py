"""Command-line entry point for the figure, fuzz and validation families.

Speed is measured elsewhere: end to end by ``benchmarks/e2e/run.py``, hot
paths in isolation by ``benchmarks/bench_kernel_micro.py``
(docs/benchmarking.md).  Subcommands::

    repro-bench figures --fig 5            # regenerate a paper figure
    repro-bench figures --all              # every figure, quick scale
    repro-bench figures --ablation checkpoint
    repro-bench faults --plans 100         # differential fault fuzzing
    repro-bench parallel --workers 2       # validate the parallel backend
    repro-bench ablate --knob checkpoint   # static-best vs on-line control
    repro-bench verify fuzz --budget 40    # forwards to repro-verify
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import ablations, harness
from .figures import FIGURES
from .tables import render_fig5, render_results, render_series

_SERIES_META = {
    "6": ("requests", "Figure 6 — RAID: execution time vs number of requests"),
    "7": ("vectors", "Figure 7 — SMMP: execution time vs number of test vectors"),
    "8": ("agg age (us)", "Figure 8 — SMMP: DyMA execution time vs aggregate age"),
    "9": ("agg age (us)", "Figure 9 — RAID: DyMA execution time vs aggregate age"),
}

def render(fig: str, results) -> str:
    if fig == "5":
        return render_fig5(results)
    if fig in _SERIES_META:
        xlabel, title = _SERIES_META[fig]
        return render_series(results, xlabel, title)
    return render_results(results, f"Experiment {fig}")


# --------------------------------------------------------------------- #
# argument groups
# --------------------------------------------------------------------- #
def _add_figure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fig", choices=sorted(FIGURES),
                        help="figure to regenerate (5..9 or 'baseline')")
    parser.add_argument("--all", action="store_true",
                        help="regenerate every figure")
    parser.add_argument("--ablation", choices=sorted(ablations.ABLATIONS),
                        help="run an ablation study instead of a figure")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (1.0 = paper size; default: "
                             "per-figure quick scale)")
    parser.add_argument("--full", action="store_true",
                        help="shorthand for --scale 1.0 (paper-sized; slow)")
    parser.add_argument("--replicates", type=int, default=3,
                        help="seeded replicates per cell (paper used 5)")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump raw results as JSON (figures only)")
    parser.add_argument("--trace", metavar="DIR",
                        help="dump a controller-decision trace (JSONL, see "
                             "docs/observability.md) per replicate into DIR")


# --------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------- #
def run_figures(args: argparse.Namespace) -> int:
    if not (args.fig or args.all or args.ablation):
        raise SystemExit(
            "repro-bench figures: choose --fig N, --all or --ablation NAME"
        )
    if args.trace:
        harness.set_trace_dir(args.trace)
        print(f"tracing every replicate into {args.trace}/ "
              f"(inspect with repro-trace)")

    kwargs: dict = {"replicates": args.replicates}
    if args.full:
        kwargs["scale"] = 1.0
    elif args.scale is not None:
        kwargs["scale"] = args.scale

    if args.ablation:
        start = time.perf_counter()
        sweep, title = ablations.ABLATIONS[args.ablation]
        print(render_results(sweep(**kwargs), title))
        print(f"\n[{time.perf_counter() - start:.1f}s wall]")
        return 0

    figures = sorted(FIGURES) if args.all else [args.fig]
    dump: dict[str, list[dict]] = {}
    for fig in figures:
        start = time.perf_counter()
        results = FIGURES[fig](**kwargs)
        print(render(fig, results))
        print(f"\n[{time.perf_counter() - start:.1f}s wall]\n")
        dump[fig] = [dataclasses.asdict(r) for r in results]
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dump, fh, indent=2, default=str)
        print(f"raw results written to {args.json}")
    return 0


def run_faults(args: argparse.Namespace) -> int:
    from ..faults.fuzz import fault_scenarios
    from ..verify.runner import run_and_report

    # the feature tracer feeds the lattice fuzzer's coverage map only
    return run_and_report(
        fault_scenarios(args.plans), "faults", collect_trace_features=False
    )


def run_ablate(args: argparse.Namespace) -> int:
    from ..control.registry import KNOBS
    from .ablate import (
        ABLATE_APPS,
        render_ablate,
        run_ablate as run_sweep,
        write_ablate_document,
    )

    knobs = tuple(args.knob) if args.knob else None
    apps = tuple(args.app) if args.app else None
    scale = args.scale if args.scale is not None else 0.05
    replicates = args.replicates
    if args.quick:
        # CI-sized: two knobs, tiny workloads, still static-vs-dynamic
        knobs = knobs or ("checkpoint", "cancellation")
        if args.scale is None:
            scale = 0.02
        replicates = min(replicates, 2)
    if knobs is not None:
        unknown = sorted(set(knobs) - set(KNOBS))
        if unknown:
            raise SystemExit(f"repro-bench ablate: unknown knob(s) "
                             f"{', '.join(unknown)}; see repro-control list")
    if apps is not None:
        unknown = sorted(set(apps) - set(ABLATE_APPS))
        if unknown:
            raise SystemExit(f"repro-bench ablate: unknown app(s) "
                             f"{', '.join(unknown)}")

    start = time.perf_counter()
    results = run_sweep(
        knobs, apps, scale=scale, replicates=replicates,
        tolerance=args.tolerance,
        progress=lambda label: print(f"  sweeping {label} ...",
                                     file=sys.stderr),
    )
    print(render_ablate(results))
    print(f"\n[{time.perf_counter() - start:.1f}s wall]")
    if args.json:
        path = write_ablate_document(
            results, args.json, scale=scale, replicates=replicates
        )
        print(f"document written to {path}")
    if args.fail_on_loss and not all(r.ok for r in results):
        return 1
    return 0


def _add_ablate_args(parser: argparse.ArgumentParser) -> None:
    from .ablate import DEFAULT_TOLERANCE

    parser.add_argument("--knob", action="append", metavar="NAME",
                        help="knob to ablate (repeatable; default: every "
                             "registered knob — see repro-control list)")
    parser.add_argument("--app", action="append",
                        choices=("phold", "smmp"),
                        help="workload to sweep on (repeatable; default: "
                             "each knob's declared apps)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (1.0 = paper size; "
                             "default 0.05, or 0.02 with --quick)")
    parser.add_argument("--replicates", type=int, default=3,
                        help="seeded replicates per cell")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed dynamic-vs-best-static shortfall "
                             "(fraction; default %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized: 2 knobs, tiny scale, 2 replicates")
    parser.add_argument("--json", metavar="PATH",
                        help="write the sweep as a JSON document")
    parser.add_argument("--fail-on-loss", action="store_true",
                        help="exit non-zero if any dynamic run loses to "
                             "its best static beyond the tolerance")


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmarks for the Time Warp reproduction: paper "
                    "figures, knob ablations, fault-injection fuzzing and "
                    "parallel-backend validation (docs/benchmarking.md).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's figures and ablations")
    _add_figure_args(figures)
    figures.set_defaults(runner=run_figures)
    faults = subparsers.add_parser(
        "faults", help="differential fault-injection fuzz sweep")
    faults.add_argument("--plans", type=int, default=100,
                        help="seeded fault plans to sweep")
    faults.set_defaults(runner=run_faults)
    # listed for --help only: main() hands the subcommand's argv to
    # parallel/validate.py, which declares the options
    subparsers.add_parser(
        "parallel",
        help="differentially validate the process-sharded backend "
             "(docs/parallel.md)")
    ablate = subparsers.add_parser(
        "ablate",
        help="per-knob static-best sweep vs on-line control "
             "(docs/control.md)")
    _add_ablate_args(ablate)
    ablate.set_defaults(runner=run_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "verify":
        # the verification harness owns its own CLI (repro-verify)
        from ..verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "parallel":
        # likewise: parallel/validate.py owns the option table
        from ..parallel.validate import main as validate_main

        return validate_main(argv[1:])
    args = _build_parser().parse_args(argv)
    return args.runner(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
