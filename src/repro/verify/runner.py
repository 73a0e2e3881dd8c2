"""Execute one :class:`Scenario` and check it against every oracle.

Checks applied to each run (docs/testing.md):

* **Differential** — the committed-state digest (per-object committed
  event counts + canonicalized final states) must equal the sequential
  golden's digest for the same app/topology/horizon.  Because the golden
  is knob-independent, this simultaneously enforces the metamorphic
  claims: config-invariance across every modelled-only knob,
  fault-invariance under reliable transport, and partition/worker-count
  invariance for the parallel backend.
* **Trace equality** — in-process backends (modelled, conservative)
  additionally compare the full committed-event trace, which also checks
  payloads and send times, not just counts and final states.
* **Invariants** — the :class:`~repro.oracle.InvariantOracle` is armed
  in every run but the golden (in every worker, for the parallel
  backend; on the conservative driver too) and must report zero
  violations; a conservative run must also commit every event at once,
  with no rollback or state save.

The digest deliberately uses only quantities every backend can produce
deterministically: a process-sharded run is not tick-for-tick stable
(the OS schedule decides the rollback count) but its *committed result*
is, so the digest replays byte-identically across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass
from typing import Any, Iterable

from ..conservative import ConservativeSimulation
from ..kernel.kernel import TimeWarpSimulation
from ..oracle.invariants import InvariantOracle
from ..sequential import SequentialSimulation
from ..trace.tracer import Tracer
from .scenario import Scenario

#: Safety valve: a livelocked run aborts instead of hanging the harness.
MAX_EXECUTED_EVENTS = 300_000

#: Wall-clock stall limit handed to the parallel backend.
PARALLEL_TIMEOUT_S = 120.0


def fork_available() -> bool:
    """Whether the process-sharded backend can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# --------------------------------------------------------------------- #
# canonical digesting
# --------------------------------------------------------------------- #
def canonical_value(value: Any) -> Any:
    """JSON-able, cross-process-stable form of an application state."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_value(getattr(value, f.name))
            for f in dc_fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {
            repr(key): canonical_value(val)
            for key, val in sorted(value.items(), key=lambda kv: repr(kv[0]))
        }
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def committed_digest(records: dict[str, tuple[int, Any]]) -> str:
    """SHA-256 over ``object name -> (committed count, final state)``."""
    doc = [
        [name, committed, canonical_value(state)]
        for name, (committed, state) in sorted(records.items())
    ]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------- #
# sequential golden
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GoldenRef:
    """The sequential kernel's committed result for one workload."""

    digest: str
    committed: int
    per_object: dict[str, int]
    trace: list
    states: dict[str, Any]


_golden_cache: dict[str, GoldenRef] = {}


def _golden_key(scenario: Scenario) -> str:
    return json.dumps(
        [scenario.app, scenario.merged_params(),
         repr(scenario.effective_end_time())],
        sort_keys=True,
    )


def sequential_golden(scenario: Scenario) -> GoldenRef:
    """Golden reference for the scenario's workload (cached per topology)."""
    key = _golden_key(scenario)
    golden = _golden_cache.get(key)
    if golden is None:
        objects = [
            obj for group in scenario.build_partition() for obj in group
        ]
        seq = SequentialSimulation(
            objects,
            record_trace=True,
            end_time=scenario.effective_end_time(),
            max_events=MAX_EXECUTED_EVENTS,
        )
        seq.run()
        per_object = Counter(entry[1] for entry in seq.trace)
        records = {
            obj.name: (per_object.get(obj.name, 0), obj.state)
            for obj in objects
        }
        golden = GoldenRef(
            digest=committed_digest(records),
            committed=seq.events_executed,
            per_object=dict(per_object),
            trace=seq.sorted_trace(),
            states={obj.name: obj.state for obj in objects},
        )
        _golden_cache[key] = golden
    return golden


# --------------------------------------------------------------------- #
# the result of one run
# --------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Everything the checks and the coverage map need from one run."""

    scenario: Scenario
    digest: str = ""
    committed: int = 0
    expected: int = 0
    digest_match: bool = False
    #: full-trace comparison; ``None`` when the backend records no trace
    trace_match: bool | None = None
    violations: tuple[str, ...] = ()
    oracle_checks: int = 0
    features: frozenset = frozenset()
    wall_s: float = 0.0
    error: str = ""
    #: on a digest mismatch, the objects whose committed count or
    #: canonical final state differs from the golden's
    mismatches: tuple[str, ...] = ()
    #: the backend's own bag: ``stats`` always; ``gvt_rounds``,
    #: ``migrations``, ``worker_timeline`` and the ``wire`` actually used
    #: on the parallel backend, with the ``safe_share`` per shard and the
    #: oracle's ``checks_by_kind``; ``faults_injected`` / ``retransmissions``
    #: when the scenario carries a fault plan
    raw: dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def failure_kind(self) -> str:
        """Stable classification driving the shrinker; '' when ok."""
        if self.error:
            return f"error:{self.error.split(':', 1)[0]}"
        if self.violations:
            return f"violation:{self.violations[0]}"
        if not self.digest_match:
            return "digest"
        if self.trace_match is False:
            return "trace"
        return ""

    @property
    def ok(self) -> bool:
        return not self.failure_kind

    def describe(self) -> str:
        """``PASS ...`` / ``FAIL[<kind>] ...``, naming every scenario field
        that is off its default (``seed`` is provenance, not behaviour)."""
        default = Scenario()
        knobs = [self.scenario.app] + [
            f"{f.name}={value}"
            for f in dc_fields(Scenario)
            if f.name not in ("app", "seed")
            and (value := getattr(self.scenario, f.name))
            != getattr(default, f.name)
        ]
        raw = self.raw
        parts = [f"committed {self.committed}/{self.expected}"]
        if "wire" in raw:
            parts.append(f"{raw['wire']} wire")
        if "stats" in raw:
            parts.append(f"{raw['stats'].rollbacks} rollback(s)")
        if "safe_share" in raw:
            shares = ", ".join(
                f"shard {shard} {share:.0%}"
                for shard, share in sorted(raw["safe_share"].items())
            )
            parts.append(
                f"{raw['stats'].committed_at_once} committed at once ({shares})"
            )
        parts += [f"{self.oracle_checks} oracle check(s)", f"{self.wall_s:.2f}s"]
        if not self.ok:
            parts.append(
                self.error
                or f"digest_match={self.digest_match}, "
                f"trace_match={self.trace_match}, "
                f"violations={list(self.violations)}, "
                f"differing objects={list(self.mismatches)}"
            )
        status = "PASS" if self.ok else f"FAIL[{self.failure_kind}]"
        text = f"{status} {' '.join(knobs)}: {', '.join(parts)}"
        timeline = raw.get("worker_timeline", ())
        if raw.get("migrations") or len(timeline) > 1:
            text += (
                f"\n  elastic: {raw['migrations']} migration(s), workers "
                + " -> ".join(f"{n}w@{at}" for at, n in timeline)
            )
        return text


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def run_scenario(
    scenario: Scenario,
    *,
    collect_trace_features: bool = True,
    timeout_s: float = PARALLEL_TIMEOUT_S,
    trace_dir: str | None = None,
    strategy="kernighan_lin",
) -> ScenarioResult:
    """Run one scenario on its backend and apply every check.

    A crash inside the run is a *finding* (``error:<Type>``), not a
    harness abort — the fuzzer shrinks crashes exactly like divergences.
    ``timeout_s``, ``trace_dir`` (per-shard JSONL traces) and ``strategy``
    (the sharding strategy) are run-local plumbing of the parallel
    backend, not part of the replayable scenario.
    """
    from .coverage import features_for  # cycle: coverage imports runner types

    scenario.validate()
    golden = sequential_golden(scenario)
    result = ScenarioResult(scenario=scenario, expected=golden.committed)
    started = time.perf_counter()
    try:
        if scenario.backend != "parallel":
            result.raw = _run_in_process(
                scenario, golden, result, collect_trace_features
            )
        else:
            result.raw = _run_parallel(
                scenario, golden, result,
                timeout_s=timeout_s, trace_dir=trace_dir, strategy=strategy,
            )
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_s = time.perf_counter() - started
    result.features = frozenset(features_for(scenario, result, result.raw))
    return result


def run_and_report(
    scenarios: Iterable[Scenario],
    label: str,
    *,
    verbose: bool = False,
    **run_options: Any,
) -> int:
    """Run every scenario, print each failure (every run with ``verbose``),
    then the totals and a final ``PASS`` / ``FAIL``; returns the exit status.

    The one loop behind ``repro-verify sweep``, ``repro-bench faults`` and
    ``repro-bench parallel``; ``run_options`` forward to
    :func:`run_scenario`.
    """
    results = []
    for scenario in scenarios:
        result = run_scenario(scenario, **run_options)
        results.append(result)
        if verbose or not result.ok:
            print(result.describe())
    failures = sum(not r.ok for r in results)
    totals = f"{sum(r.oracle_checks for r in results)} oracle check(s)"
    if any(r.scenario.faults for r in results):
        totals += (
            f", {sum(r.raw.get('faults_injected', 0) for r in results)} "
            f"fault(s) injected, "
            f"{sum(r.raw.get('retransmissions', 0) for r in results)} "
            f"retransmission(s)"
        )
    print(
        f"{label}: {len(results)} scenario(s), {failures} failure(s); {totals}"
    )
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


def _finish(
    result: ScenarioResult,
    golden: GoldenRef,
    records: dict[str, tuple[int, Any]],
) -> None:
    result.digest = committed_digest(records)
    result.committed = sum(count for count, _ in records.values())
    result.digest_match = result.digest == golden.digest
    if not result.digest_match:
        result.mismatches = tuple(
            name
            for name, (count, state) in sorted(records.items())
            if count != golden.per_object.get(name, 0)
            or canonical_value(state) != canonical_value(golden.states[name])
        )


def _finish_time_warp(result, golden, stats, state_of) -> None:
    """:func:`_finish` from an LP-hosted run's per-object statistics."""
    _finish(result, golden, {
        name: (
            stats.per_object[name].events_committed
            if name in stats.per_object
            else 0,
            state_of(name),
        )
        for name in golden.states
    })


def _run_in_process(
    scenario: Scenario,
    golden: GoldenRef,
    result: ScenarioResult,
    collect_trace_features: bool,
) -> dict[str, Any]:
    """The modelled executive or the conservative driver: one config with
    the oracle armed, and the committed trace held to the golden's."""
    oracle = InvariantOracle()
    tracer = Tracer(capacity=4096) if collect_trace_features else None
    config = scenario.build_config(
        record_trace=True,
        oracle=oracle,
        tracer=tracer,
        max_executed_events=MAX_EXECUTED_EVENTS,
    )
    partition = scenario.build_partition()
    conservative = scenario.backend == "conservative"
    sim = (ConservativeSimulation if conservative else TimeWarpSimulation)(
        partition, config
    )
    stats = sim.run()
    states = {obj.name: obj.state for group in partition for obj in group}
    _finish_time_warp(result, golden, stats, states.__getitem__)
    result.trace_match = sim.sorted_trace() == golden.trace
    result.violations = tuple(v.invariant for v in oracle.violations)
    result.oracle_checks = oracle.checks
    if conservative and (
        stats.rollbacks or stats.state_saves
        or stats.committed_at_once != stats.committed_events
    ):
        # every event ran below its round's bound: none may keep history
        result.violations += ("conservative_history",)
    raw = {
        "stats": stats,
        "oracle": oracle,
        "trace_types": (
            {r["type"] for r in tracer.records} if tracer is not None else set()
        ),
    }
    if scenario.script:
        # the executive drops the set steps whose commit never came
        raw["steps_run"] = len(scenario.script.get("steps", ())) - sum(
            len(due) for due in sim.executive.steps.values()
        )
    if scenario.faults:
        # what stops a silently perfect wire passing a fault sweep vacuously
        counters = sim.executive.network.counters
        raw["faults_injected"] = counters.faults_injected()
        raw["retransmissions"] = counters.retransmissions
    return raw


def _run_parallel(
    scenario: Scenario,
    golden: GoldenRef,
    result: ScenarioResult,
    **backend_options: Any,
) -> dict[str, Any]:
    if not fork_available():  # pragma: no cover - platform dependent
        result.error = (
            "SkipBackend: parallel backend needs the fork start method"
        )
        return {}
    from ..parallel.backend import ParallelSimulation

    config = scenario.build_config(
        oracle=InvariantOracle(),
        max_executed_events=MAX_EXECUTED_EVENTS,
    )
    sim = ParallelSimulation.from_builder(
        scenario.build_partition, config, **backend_options
    )
    stats = sim.run()
    _finish_time_warp(result, golden, stats, sim.final_states.__getitem__)
    result.violations = tuple(
        f"{violation.invariant}" for _shard, violation in sim.violations
    )
    result.oracle_checks = sim.oracle_checks
    return {
        "stats": stats,
        "gvt_rounds": sim.gvt_rounds_run,
        "migrations": sim.migrations_in,
        # leftover steps fire on the quiet fleet: every step runs
        "steps_run": len((scenario.script or {}).get("steps", ())),
        "worker_timeline": tuple(sim.worker_timeline),
        "wire": sim.wire,
        "safe_share": dict(sim.safe_share),
        "checks_by_kind": sim.oracle_checks_by_kind,
    }
