"""``repro-trace``: inspect controller-decision traces from the terminal.

Examples::

    repro-trace summarize run.jsonl              # counts + per-object moves
    repro-trace filter run.jsonl --type rollback --obj disk0
    repro-trace timeline run.jsonl               # one row per GVT round
    repro-trace timeline run.jsonl --obj disk0   # chi / HR / rollbacks over time
    repro-trace validate run.jsonl               # schema check every record
"""

from __future__ import annotations

import argparse
import sys

from .reader import (
    RoundRow,
    TraceFormatError,
    load_trace,
    read_trace,
    summarize,
    validate_trace,
)
from .schema import RECORD_TYPES
from .tracer import encode_record


def _fmt_num(value: object, precision: int = 4) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.{precision}f}"
    return str(value)


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize(read_trace(args.trace))
    print(f"{args.trace}: {summary.records} records")
    print("\nrecords by type:")
    for rtype in sorted(summary.by_type):
        print(f"  {rtype:<18} {summary.by_type[rtype]:>8}")
    print(
        f"\ngvt rounds: {summary.gvt_rounds}   final gvt: "
        f"{_fmt_num(summary.final_gvt, 1)}"
    )
    if summary.flushes:
        print(
            f"aggregates flushed: {summary.flushes} "
            f"({summary.flushed_events} events)"
        )
    if summary.window_invocations:
        print(
            f"optimism-window control: {summary.window_invocations} "
            f"invocations, {summary.window_moves} moves   "
            f"final W: {_fmt_num(summary.final_window, 1)}"
        )
    if summary.gvt_ctrl_invocations:
        print(
            f"gvt-period control: {summary.gvt_ctrl_invocations} "
            f"invocations, {summary.gvt_ctrl_moves} moves   "
            f"final P: {_fmt_num(summary.final_gvt_period, 1)}"
        )
    if summary.objects:
        header = (
            f"\n{'object':<14} {'chi invoc':>9} {'chi moves':>9} {'chi':>9} "
            f"{'HR invoc':>8} {'switches':>8} {'mode':>12} {'rollbacks':>9}"
        )
        print(header)
        print("-" * len(header))
        for name in sorted(summary.objects):
            traj = summary.objects[name]
            chi = (
                f"{traj.chi_first}->{traj.chi_last}"
                if traj.chi_first is not None
                else "-"
            )
            print(
                f"{traj.obj:<14} {traj.checkpoint_invocations:>9} "
                f"{traj.checkpoint_moves:>9} {chi:>9} "
                f"{traj.cancellation_invocations:>8} {traj.mode_switches:>8} "
                f"{traj.final_mode or '-':>12} {traj.rollbacks:>9}"
            )
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    records = load_trace(
        args.trace,
        types=args.type or None,
        obj=args.obj,
        lp=args.lp,
    )
    for record in records[: args.limit] if args.limit else records:
        print(encode_record(record))
    if args.limit and len(records) > args.limit:
        print(
            f"... {len(records) - args.limit} more (raise --limit)",
            file=sys.stderr,
        )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Per-round trajectory table, or with ``--obj`` one object's text
    timeline: every controller decision and rollback."""
    if args.obj is None:
        print(render_rounds(summarize(read_trace(args.trace)).rounds))
        return 0
    records = load_trace(
        args.trace,
        types=("ctrl.checkpoint", "ctrl.cancellation", "rollback"),
        obj=args.obj,
    )
    if not records:
        print(f"no records for object {args.obj!r}", file=sys.stderr)
        return 1
    header = f"{'wall (s)':>10} {'event':<18} {'O':>8} {'move':<24} verdict"
    print(f"object {args.obj}\n")
    print(header)
    print("-" * len(header))
    for record in records:
        rtype = record["type"]
        t = record["t"] / 1e6
        if rtype == "ctrl.checkpoint":
            o = _fmt_num(record["o"])
            move = f"chi {record['old']} -> {record['new']}"
            verdict = record["verdict"]
        elif rtype == "ctrl.cancellation":
            o = _fmt_num(record["o"])
            move = f"{record['old']} -> {record['new']}"
            verdict = record["verdict"]
        else:  # rollback
            o = "-"
            move = f"depth {record['depth']} coast {record['coast_events']}"
            verdict = record["cause"]
        print(f"{t:>10.4f} {rtype:<18} {o:>8} {move:<24} {verdict}")
    return 0


def render_rounds(rounds: list[RoundRow]) -> str:
    """The per-GVT-round trajectory table: a header, a rule, one line
    per row."""
    lines = [
        f"{'wall (s)':>9} {'gvt':>10} {'waste':>6} {'lazy':>5} "
        f"{'aggr':>5} {'chi':>6} {'agg win (us)':>14} {'opt win':>9}",
    ]
    lines.append("-" * len(lines[0]))
    for row in rounds:
        windows = ",".join(
            f"{row.windows[lp]:.0f}" for lp in sorted(row.windows)[:4]
        )
        lines.append(
            f"{row.t / 1e6:>9.3f} {row.gvt:>10.1f} {row.waste:>6.2f} "
            f"{row.lazy:>5} {row.aggressive:>5} {row.mean_chi:>6.1f} "
            f"{windows:>14} {_fmt_num(row.optimism_window, 0):>9}"
        )
    return "\n".join(lines)


def cmd_validate(args: argparse.Namespace) -> int:
    errors = validate_trace(args.trace)
    if errors:
        for error in errors[:50]:
            print(error, file=sys.stderr)
        if len(errors) > 50:
            print(f"... {len(errors) - 50} more errors", file=sys.stderr)
        print(f"{args.trace}: INVALID ({len(errors)} errors)")
        return 1
    print(f"{args.trace}: valid (schema knows {len(RECORD_TYPES)} record types)")
    return 0


# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect controller-decision traces (docs/observability.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="counts and per-object trajectories")
    p.add_argument("trace")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("filter", help="print matching records as JSONL")
    p.add_argument("trace")
    p.add_argument("--type", action="append", choices=sorted(RECORD_TYPES),
                   help="keep this record type (repeatable)")
    p.add_argument("--obj", help="keep records about this simulation object")
    p.add_argument("--lp", type=int, help="keep records emitted by this LP")
    p.add_argument("--limit", type=int, default=0,
                   help="print at most N records (0 = all)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("timeline",
                       help="one row per GVT round, or one object's "
                            "chi / HR / rollback history as text")
    p.add_argument("trace")
    p.add_argument("--obj", help="simulation object name")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("validate", help="schema-check every record")
    p.add_argument("trace")
    p.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"repro-trace: {args.trace}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
