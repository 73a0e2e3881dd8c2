"""Reading traces back: parse, filter, validate, summarize.

The inverse of :mod:`repro.trace.tracer`: iterate the JSONL records of a
trace file (reviving the ``"inf"``/``"-inf"``/``"nan"`` encodings of
non-finite numbers on schema-declared number fields), filter them by
type/object/LP, and compute the summaries the ``repro-trace`` CLI prints.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .schema import COMMON_FIELDS, RECORD_TYPES, validate_record

#: field name -> revive non-finite strings to floats, per record type
_NUMBER_FIELDS: dict[str, frozenset[str]] = {
    rtype: frozenset(
        f.name for f in spec.fields + COMMON_FIELDS if f.type == "number"
    )
    for rtype, spec in RECORD_TYPES.items()
}

_REVIVE = {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}


class TraceFormatError(ValueError):
    """A line of the trace is not valid JSON."""


def _revive(record: dict) -> dict:
    numeric = _NUMBER_FIELDS.get(record.get("type", ""), frozenset())
    for key in numeric:
        value = record.get(key)
        if isinstance(value, str) and value in _REVIVE:
            record[key] = _REVIVE[value]
    return record


def parse_line(line: str, lineno: int = 0) -> dict:
    """One JSONL line -> one record dict (non-finite numbers revived)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise TraceFormatError(f"line {lineno}: record is not an object")
    return _revive(record)


def read_trace(path: str | Path) -> Iterator[dict]:
    """Yield every record of a trace file, header included, in file order."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield parse_line(line, lineno)


def load_trace(
    path: str | Path,
    *,
    types: Iterable[str] | None = None,
    obj: str | None = None,
    lp: int | None = None,
) -> list[dict]:
    """Read a trace with optional filtering.

    ``types`` keeps only the given record types; ``obj`` keeps records
    about that simulation object; ``lp`` keeps records emitted by (or, for
    ``comm.flush``/``ctrl.aggregation``, sent from) that LP.  The header is
    dropped whenever any filter is active.
    """
    wanted = set(types) if types is not None else None
    out: list[dict] = []
    filtering = wanted is not None or obj is not None or lp is not None
    for record in read_trace(path):
        if filtering and record["type"] == "trace.header":
            continue
        if wanted is not None and record["type"] not in wanted:
            continue
        if obj is not None and record.get("obj") != obj:
            continue
        if lp is not None and record.get("lp") != lp:
            continue
        out.append(record)
    return out


def validate_trace(path: str | Path) -> list[str]:
    """Validate every record of a trace; returns all errors found.

    Unlike :func:`read_trace`, a malformed line is reported as an error
    and validation continues — this is the function you point at a
    suspect file."""
    errors: list[str] = []
    first = True
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = parse_line(line, lineno)
            except TraceFormatError as exc:
                errors.append(str(exc))
                first = False
                continue
            if first:
                first = False
                if record.get("type") != "trace.header":
                    errors.append(
                        "trace does not start with a trace.header record"
                    )
            errors.extend(validate_record(record))
    if first:
        errors.append("trace is empty")
    return errors


# ---------------------------------------------------------------------- #
# summaries (consumed by the CLI and by tests)
# ---------------------------------------------------------------------- #
@dataclass
class ObjectTrajectory:
    """What one simulation object's controllers did over a run.

    *Invocations* count every ``ctrl.*`` record (the cadence is the
    controller's period ``P``, no-ops included); *moves* count only the
    invocations whose ``old != new`` — the distinction
    ``docs/observability.md`` documents under "verdict semantics".
    """

    obj: str
    checkpoint_invocations: int = 0
    checkpoint_moves: int = 0
    chi_first: int | None = None
    chi_last: int | None = None
    cancellation_invocations: int = 0
    mode_switches: int = 0
    final_mode: str | None = None
    rollbacks: int = 0
    rolled_back_events: int = 0


@dataclass(slots=True)
class RoundRow:
    """Where a run stood at one advancing ``gvt.round``.

    Progress comes from the round record itself; health from the
    ``rollback`` records since the previous row; knob positions from the
    latest ``ctrl.*`` record per object / LP / run at the round.
    """

    t: float
    gvt: float
    #: events executed so far, run total (``None`` in traces written
    #: before ``gvt.round`` carried it)
    executed: int | None
    #: events rolled back since the previous row (sum of ``rollback.depth``)
    rolled_back: int
    #: ``rolled_back`` over the events executed since the previous row
    waste: float
    #: latest checkpoint interval per object with a ``ctrl.checkpoint``
    chi: dict[str, int]
    lazy: int
    aggressive: int
    #: latest aggregation window (us) per sending LP
    windows: dict[int, float]
    #: latest optimism window (inf = unbounded, or no window control)
    optimism_window: float

    @property
    def mean_chi(self) -> float:
        return sum(self.chi.values()) / len(self.chi) if self.chi else 0.0


@dataclass
class TraceSummary:
    """Aggregate view of one trace file."""

    records: int = 0
    by_type: Counter = field(default_factory=Counter)
    objects: dict[str, ObjectTrajectory] = field(default_factory=dict)
    gvt_rounds: int = 0
    final_gvt: float = 0.0
    window_invocations: int = 0
    window_moves: int = 0
    final_window: float | None = None
    gvt_ctrl_invocations: int = 0
    gvt_ctrl_moves: int = 0
    final_gvt_period: float | None = None
    flushes: int = 0
    flushed_events: int = 0
    #: one :class:`RoundRow` per advancing ``gvt.round``
    rounds: list[RoundRow] = field(default_factory=list)

    def trajectory(self, obj: str) -> ObjectTrajectory:
        traj = self.objects.get(obj)
        if traj is None:
            traj = self.objects[obj] = ObjectTrajectory(obj)
        return traj


def summarize(records: Iterable[dict]) -> TraceSummary:
    """Fold a record stream into a :class:`TraceSummary`."""
    summary = TraceSummary()
    windows: dict[int, float] = {}
    rolled = 0
    last_executed = 0
    for record in records:
        rtype = record["type"]
        summary.records += 1
        summary.by_type[rtype] += 1
        if rtype == "ctrl.checkpoint":
            traj = summary.trajectory(record["obj"])
            traj.checkpoint_invocations += 1
            if record["old"] != record["new"]:
                traj.checkpoint_moves += 1
            if traj.chi_first is None:
                traj.chi_first = record["old"]
            traj.chi_last = record["new"]
        elif rtype == "ctrl.cancellation":
            traj = summary.trajectory(record["obj"])
            traj.cancellation_invocations += 1
            if record["switched"]:
                traj.mode_switches += 1
            traj.final_mode = record["new"]
        elif rtype == "rollback":
            traj = summary.trajectory(record["obj"])
            traj.rollbacks += 1
            traj.rolled_back_events += record["depth"]
            rolled += record["depth"]
        elif rtype == "gvt.round":
            summary.gvt_rounds += 1
            if record["advanced"]:
                summary.final_gvt = record["gvt"]
                executed = record.get("executed")
                ran = executed - last_executed if executed is not None else 0
                trajs = summary.objects.values()
                modes = [t.final_mode for t in trajs if t.final_mode is not None]
                summary.rounds.append(RoundRow(
                    t=record["t"],
                    gvt=record["gvt"],
                    executed=executed,
                    rolled_back=rolled,
                    waste=rolled / ran if ran > 0 else 0.0,
                    chi={t.obj: t.chi_last for t in trajs
                         if t.chi_last is not None},
                    lazy=modes.count("lazy"),
                    aggressive=modes.count("aggressive"),
                    windows=dict(windows),
                    # float(): in-memory records hold the string "inf"
                    optimism_window=float(summary.final_window)
                    if summary.final_window is not None else float("inf"),
                ))
                rolled = 0
                if executed is not None:
                    last_executed = executed
        elif rtype == "ctrl.window":
            summary.window_invocations += 1
            if record["old"] != record["new"]:
                summary.window_moves += 1
            summary.final_window = record["new"]
        elif rtype == "ctrl.gvt":
            summary.gvt_ctrl_invocations += 1
            if record["old"] != record["new"]:
                summary.gvt_ctrl_moves += 1
            summary.final_gvt_period = record["new"]
        elif rtype == "ctrl.aggregation":
            windows[record["lp"]] = record["new"]
        elif rtype == "comm.flush":
            summary.flushes += 1
            summary.flushed_events += record["count"]
            windows[record["lp"]] = record["window"]
    return summary
