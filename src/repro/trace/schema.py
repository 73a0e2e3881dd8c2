"""The versioned controller-decision trace schema.

A trace is a JSON-Lines stream: one JSON object per line, the first line
always a ``trace.header`` record carrying :data:`SCHEMA_VERSION`.  Every
record type, every field, and the verdict vocabularies are declared here
as data — the declarations *are* the schema, :func:`validate_record`
checks records against them, and ``docs/observability.md`` documents the
same registry prose-first (a test asserts the two never drift).

Versioning policy (documented in docs/observability.md):

* adding a record type or an *optional* field is backward compatible and
  does not bump :data:`SCHEMA_VERSION`;
* renaming/removing a field or type, changing a field's meaning or unit,
  or changing a verdict vocabulary bumps the version;
* readers must ignore record types and fields they do not know.

Encoding notes: all times are modelled microseconds (the emitting LP's
wall clock, or the executive wall clock for global records); non-finite
floats are encoded as the strings ``"inf"``/``"-inf"``/``"nan"`` so every
line is strict JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bumped only on breaking changes; see the versioning policy above.
#: 2 removed the snapshot-strategy control record type.
SCHEMA_VERSION = 2

#: Python types accepted for each declared field type.  ``number`` fields
#: additionally accept the non-finite string encodings.
_TYPE_CHECKS = {
    "int": (int,),
    "number": (int, float),
    "str": (str,),
    "bool": (bool,),
}

_NON_FINITE = ("inf", "-inf", "nan")


@dataclass(frozen=True)
class FieldSpec:
    """One field of one record type."""

    name: str
    type: str  # "int" | "number" | "str" | "bool"
    doc: str
    required: bool = True


@dataclass(frozen=True)
class RecordSpec:
    """One record type: its fields and, if any, its verdict vocabulary."""

    type: str
    doc: str
    fields: tuple[FieldSpec, ...]
    verdicts: tuple[str, ...] = ()


#: Fields present on every record (including the header).
COMMON_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("type", "str", "record type, one of the registry keys"),
    FieldSpec("seq", "int", "per-trace monotonically increasing sequence number"),
    FieldSpec("t", "number", "modelled wall-clock microseconds at emission"),
)


def _f(*specs: tuple) -> tuple[FieldSpec, ...]:
    return tuple(FieldSpec(*s) for s in specs)


#: The registry: every record type the kernel can emit.
RECORD_TYPES: dict[str, RecordSpec] = {
    spec.type: spec
    for spec in (
        RecordSpec(
            "trace.header",
            "First record of every trace; identifies the schema.",
            _f(
                ("schema", "int", "the SCHEMA_VERSION the trace was written with"),
                ("lib", "str", 'always "repro"'),
            ),
        ),
        RecordSpec(
            "ctrl.checkpoint",
            "One dynamic check-pointing control invocation (<Ec, chi, S, T, P>): "
            "the sampled cost index and the interval move it produced.",
            _f(
                ("lp", "int", "emitting LP id"),
                ("obj", "str", "simulation object name"),
                ("o", "number", "sampled output O: Ec normalized per window event"),
                ("old", "int", "checkpoint interval chi before the invocation"),
                ("new", "int", "chi after the invocation (clamped to [1, MAX_INTERVAL])"),
                ("verdict", "str", "transfer-function branch taken"),
                ("events", "int", "events executed in the observation window"),
                ("saves", "int", "state saves in the window"),
                ("save_cost", "number", "modelled us spent saving state in the window"),
                ("coast_events", "int", "coast-forward re-executions in the window"),
                ("coast_cost", "number", "modelled us spent coasting in the window"),
                ("rollbacks", "int", "rollbacks in the window"),
            ),
            verdicts=(
                "first_sample", "ec_rose", "ec_flat",       # DynamicCheckpoint
                "reversed", "kept_direction",               # HillClimbCheckpoint
                "static",                                   # StaticCheckpoint
            ),
        ),
        RecordSpec(
            "ctrl.cancellation",
            "One dynamic cancellation control invocation (<HR, strategy, "
            "Aggressive, T, P>): the sampled hit ratio and the dead-zone verdict.",
            _f(
                ("lp", "int", "emitting LP id"),
                ("obj", "str", "simulation object name"),
                ("o", "number", "sampled output O: hit ratio over the filter depth"),
                ("old", "str", 'strategy before: "aggressive" | "lazy"'),
                ("new", "str", "strategy after"),
                ("verdict", "str", "dead-zone verdict"),
                ("switched", "bool", "whether the strategy actually changed"),
            ),
            verdicts=(
                "above_a2l", "below_l2a", "dead_zone",      # DynamicCancellation
                "locked_in", "locked",                      # PermanentSet
                "pinned_aggressive",                        # PermanentAggressive
            ),
        ),
        RecordSpec(
            "ctrl.aggregation",
            "One DyMA control invocation (<R(age), W, W_initial, SAAW, "
            "everyAggregate>): emitted as each aggregate is sent, when the "
            "LP's aggregation policy is adaptive.",
            _f(
                ("lp", "int", "sending LP id"),
                ("dst_lp", "int", "destination LP of the flushed aggregate"),
                ("o", "number", "sampled output O: age-modified reception rate R(age)"),
                ("old", "number", "aggregation window W (us) before"),
                ("new", "number", "W (us) after"),
                ("verdict", "str", "rate-comparison verdict"),
                ("count", "int", "events in the flushed aggregate"),
                ("age", "number", "aggregate age (us) when flushed"),
            ),
            verdicts=("first_aggregate", "rate_rose", "rate_fell", "rate_flat"),
        ),
        RecordSpec(
            "ctrl.window",
            "One adaptive-time-window control invocation (<waste, W_opt, "
            "unbounded, T, everyGVT>); global, fired from the executive at "
            "each advancing GVT round.",
            _f(
                ("o", "number", "sampled output O: wasted-work ratio of the interval"),
                ("old", "number", 'optimism window before ("inf" = unbounded)'),
                ("new", "number", "optimism window after"),
                ("verdict", "str", "dead-zone verdict"),
                ("executed", "int", "events executed since the previous invocation"),
                ("rolled_back", "int", "events rolled back since the previous invocation"),
                ("gvt", "number", "the GVT estimate the window is anchored at"),
            ),
            verdicts=("high_waste_first_clamp", "high_waste", "low_waste",
                      "dead_zone", "static"),
        ),
        RecordSpec(
            "ctrl.gvt",
            "One meta-controller GVT-period invocation (<backlog, gvt "
            "period, 50ms, T, every4Rounds>); global, fired from the "
            "executive's meta loop (docs/control.md).",
            _f(
                ("o", "number",
                 "sampled output O: uncommitted-history backlog per LP"),
                ("old", "number", "GVT round period (us) before"),
                ("new", "number",
                 "period (us) after (clamped to [1e3, 1e6])"),
                ("verdict", "str", "dead-zone verdict"),
                ("executed", "int", "events executed so far, run total"),
                ("committed", "int", "events committed so far, run total"),
                ("gvt", "number", "the GVT estimate at the invocation"),
            ),
            verdicts=("backlog_high", "backlog_low", "dead_zone"),
        ),
        RecordSpec(
            "ctrl.placement",
            "One meta-controller placement invocation (<imbalance, "
            "placement, static, gap-halving move, every8Rounds>); global, "
            "fired from the executive's meta loop (docs/control.md).",
            _f(
                ("o", "number",
                 "sampled output O: hottest-host load over mean host load"),
                ("old", "str",
                 'applied moves as "oid@src" pairs, comma-joined '
                 '("" = no move)'),
                ("new", "str",
                 'the same moves as "oid@dst" pairs, comma-joined'),
                ("verdict", "str", "move/hold verdict"),
                ("moves", "int", "migrations applied by this invocation"),
            ),
            verdicts=("migrate", "hold"),
        ),
        RecordSpec(
            "lp.migrate",
            "One live object migration between hosts: the full Time Warp "
            "context moved as a canonical checkpoint "
            "(repro.kernel.migration).",
            _f(
                ("oid", "int", "global id of the migrated object"),
                ("src_lp", "int", "host LP/shard the object left"),
                ("dst_lp", "int", "host LP/shard the object joined"),
            ),
        ),
        RecordSpec(
            "rollback",
            "One rollback at one simulation object: cause, depth and the "
            "coast-forward bill.",
            _f(
                ("lp", "int", "emitting LP id"),
                ("obj", "str", "simulation object name"),
                ("cause", "str", '"primary" (straggler) | "secondary" (anti-message)'),
                ("to", "number", "virtual receive time of the straggler/anti"),
                ("restored_lvt", "number", "LVT of the restored snapshot"),
                ("depth", "int", "processed events returned to the future"),
                ("undone_sends", "int", "output records undone by the rollback"),
                ("coast_events", "int", "events re-executed during coast-forward"),
                ("coast_cost", "number", "modelled us charged for the coast-forward"),
            ),
        ),
        RecordSpec(
            "gvt.round",
            "One GVT estimation round reaching a value (omniscient: every "
            "round; mattern: every round whose white counts balance).",
            _f(
                ("algorithm", "str", '"omniscient" | "mattern"'),
                ("gvt", "number", "the round's estimate"),
                ("advanced", "bool", "whether the estimate advanced committed GVT"),
                ("executed", "int",
                 "events executed so far, run total (a shard's total in a "
                 "worker's trace)", False),
            ),
        ),
        RecordSpec(
            "fossil.collect",
            "One fossil collection pass at one LP.",
            _f(
                ("lp", "int", "collecting LP id"),
                ("gvt", "number", "the GVT bound collected below"),
                ("committed", "int", "events committed by this pass"),
                ("items", "int", "history items (events/states/output records) reclaimed"),
                ("final", "bool", "whether this is the unconditional pass at termination"),
            ),
        ),
        RecordSpec(
            "comm.flush",
            "One aggregate leaving an LP's transport buffer as a physical "
            "message.",
            _f(
                ("lp", "int", "sending LP id"),
                ("dst_lp", "int", "destination LP id"),
                ("count", "int", "events in the aggregate"),
                ("age", "number", "aggregate age (us) when flushed"),
                ("window", "number", "aggregation window (us) in force at the flush"),
                ("trigger", "str", '"age" | "capacity" | "drain"'),
            ),
        ),
        RecordSpec(
            "fault.inject",
            "One injected network fault applied to one physical-message "
            "copy by the fault-injecting wire (docs/robustness.md).",
            _f(
                ("fault", "str", '"drop" | "duplicate" | "delay" | "reorder"'),
                ("src_lp", "int", "sending LP id"),
                ("dst_lp", "int", "destination LP id"),
                ("serial", "int",
                 "run-relative physical message serial "
                 "(-1 for transport-internal acks)"),
                ("seq", "int", "per-channel transport sequence number"),
                ("attempt", "int", "transmission attempt (0 = first send)"),
                ("msg_kind", "str",
                 '"data" | "gvt-token" | "gvt-broadcast" | "ack"'),
                ("lost", "bool",
                 "whether the copy is permanently lost (drops only)", False),
            ),
        ),
        RecordSpec(
            "net.retransmit",
            "One timeout-driven retransmission of an unacknowledged "
            "physical message by the reliable transport.",
            _f(
                ("src_lp", "int", "sending LP id"),
                ("dst_lp", "int", "destination LP id"),
                ("serial", "int", "run-relative physical message serial"),
                ("seq", "int", "per-channel transport sequence number"),
                ("attempt", "int", "retransmission number (1 = first retry)"),
                ("rto", "number", "the retransmission timeout (us) that expired"),
            ),
        ),
        RecordSpec(
            "oracle.violation",
            "One Time Warp invariant violation detected by the runtime "
            "oracle (docs/robustness.md).",
            _f(
                ("invariant", "str",
                 '"gvt_monotonic" | "gvt_safety" | "state_fidelity" | '
                 '"anti_pairing" | "wire_conservation" | "message_loss"'),
                ("detail", "str", "human-readable specifics of the violation"),
            ),
        ),
    )
}


def validate_record(record: object) -> list[str]:
    """Check one parsed record against the schema; returns error strings
    (empty = valid).  Unknown fields are allowed per the versioning policy;
    unknown record *types* are an error when validating a trace this
    library wrote (readers of foreign traces should skip them instead)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    rtype = record.get("type")
    if not isinstance(rtype, str):
        return [f"record has no string 'type': {record!r}"]
    spec = RECORD_TYPES.get(rtype)
    if spec is None:
        return [f"unknown record type {rtype!r}"]
    for fspec in COMMON_FIELDS + spec.fields:
        if fspec.name not in record:
            if fspec.required:
                errors.append(f"{rtype}: missing field {fspec.name!r}")
            continue
        value = record[fspec.name]
        accepted = _TYPE_CHECKS[fspec.type]
        if fspec.type == "number" and isinstance(value, str):
            if value in _NON_FINITE:
                continue
            errors.append(
                f"{rtype}.{fspec.name}: non-finite string must be one of "
                f"{_NON_FINITE}, got {value!r}"
            )
            continue
        # bool is an int subclass; keep int fields strictly integral
        if isinstance(value, bool) and fspec.type != "bool":
            errors.append(f"{rtype}.{fspec.name}: expected {fspec.type}, got bool")
            continue
        if not isinstance(value, accepted):
            errors.append(
                f"{rtype}.{fspec.name}: expected {fspec.type}, "
                f"got {type(value).__name__}"
            )
            continue
        if fspec.name == "verdict" and spec.verdicts and value not in spec.verdicts:
            errors.append(
                f"{rtype}.verdict: {value!r} not in vocabulary {spec.verdicts}"
            )
    if rtype == "trace.header":
        schema = record.get("schema")
        if isinstance(schema, int) and schema > SCHEMA_VERSION:
            errors.append(
                f"trace written with schema {schema}, reader knows {SCHEMA_VERSION}"
            )
    return errors
