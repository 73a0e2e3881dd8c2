"""``repro-control``: inspect the knob registry from the terminal.

Examples::

    repro-control list                      # one line per registered knob
    repro-control show checkpoint           # one knob's full declaration
    repro-control docs                      # the markdown knob table
    repro-control docs --check docs/control.md   # drift check (CI)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .registry import KNOBS, get_knob, render_knob_table

#: markers bounding the generated table inside docs/control.md
TABLE_START = "<!-- knob-table:start (generated: repro-control docs) -->"
TABLE_END = "<!-- knob-table:end -->"


def embedded_table(text: str) -> str | None:
    """Extract the generated table committed between the doc markers."""
    try:
        after = text.split(TABLE_START, 1)[1]
        return after.split(TABLE_END, 1)[0].strip()
    except IndexError:
        return None


# ---------------------------------------------------------------------- #
def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in KNOBS)
    for spec in KNOBS.values():
        managed = "meta" if spec.meta_managed else "kernel"
        print(f"{spec.name:<{width}}  [{spec.target:>6}/{managed:<6}]  "
              f"{spec.domain}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    spec = get_knob(args.knob)
    print(f"{spec.title} ({spec.name})")
    print(f"  O           {spec.sampled_output}")
    print(f"  I           {spec.parameter}")
    print(f"  S           {spec.initial}")
    print(f"  T           {spec.transfer}")
    print(f"  P           {spec.period}")
    print(f"  target      {spec.target}"
          + ("  (meta-managed)" if spec.meta_managed else ""))
    print(f"  domain      {spec.domain}")
    print(f"  constraint  {spec.constraint}")
    print(f"  config      SimulationConfig.{spec.config_field}")
    print(f"  trace       {spec.record_type}")
    print(f"  statics     {', '.join(label for label, _ in spec.static_values)}")
    if spec.doc:
        print(f"\n  {spec.doc}")
    return 0


def cmd_docs(args: argparse.Namespace) -> int:
    table = render_knob_table()
    if not args.check:
        print(table)
        return 0
    path = Path(args.check)
    committed = embedded_table(path.read_text(encoding="utf-8"))
    if committed is None:
        print(f"{path}: missing the knob-table markers\n"
              f"  {TABLE_START}\n  {TABLE_END}", file=sys.stderr)
        return 1
    if committed != table:
        print(f"{path}: committed knob table drifted from the registry; "
              "regenerate with `repro-control docs` and paste between the "
              "markers", file=sys.stderr)
        return 1
    print(f"{path}: knob table matches the registry ({len(KNOBS)} knobs)")
    return 0


# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-control",
        description="Inspect the declarative knob registry (docs/control.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="one line per registered knob")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("show", help="one knob's full declaration")
    p.add_argument("knob", choices=sorted(KNOBS))
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("docs", help="render (or drift-check) the knob table")
    p.add_argument("--check", metavar="DOC.md",
                   help="verify the table committed in DOC.md matches the "
                        "registry instead of printing it")
    p.set_defaults(func=cmd_docs)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"repro-control: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
