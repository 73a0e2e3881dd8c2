"""Differential fuzzing of the Time Warp kernel under network faults.

For each seeded :class:`~repro.faults.plan.FaultPlan` the harness runs
the parallel kernel over a fault-injecting wire — with the invariant
oracle armed — and asserts two properties:

1. **Differential**: the committed-event trace equals the sequential
   kernel's golden trace for the same application (faults may change the
   *path* — rollbacks, retransmissions — never the committed result);
2. **Invariants**: the oracle reports zero violations.

Plans alternate the GVT algorithm (omniscient / Mattern) per seed so the
distributed GVT's colouring is fuzzed too.  Used by the property tests in
``tests/properties/test_fault_fuzz.py`` and by ``repro-bench faults``
(docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.phold import PHOLDParams, build_phold
from ..apps.smmp import SMMPParams, build_smmp
from ..kernel.config import SimulationConfig
from ..kernel.kernel import TimeWarpSimulation
from ..sequential import SequentialSimulation
from ..oracle.invariants import InvariantOracle
from .network import FaultyNetwork
from .plan import FaultPlan, FaultRates

#: Default sweep rates: every fault class enabled, drop+dup+reorder per
#: the acceptance bar, plus a little extra latency noise.
DEFAULT_RATES = FaultRates(drop=0.08, duplicate=0.08, delay=0.06, reorder=0.08)

#: Virtual-time horizon for the PHOLD fuzz workload (PHOLD is unbounded).
PHOLD_END_TIME = 300.0

#: Safety valve: a livelocked case aborts instead of hanging the sweep.
MAX_EXECUTED_EVENTS = 500_000


def make_plan(seed: int, rates: FaultRates = DEFAULT_RATES, **overrides) -> FaultPlan:
    """The sweep's plan for one seed (overrides forward to FaultPlan)."""
    return FaultPlan(seed=seed, rates=rates, **overrides)


def _build_phold_workload():
    return build_phold(
        PHOLDParams(
            n_objects=8, n_lps=3, jobs_per_object=2,
            state_size_ints=4, seed=11,
        )
    )


def _build_smmp_workload():
    return build_smmp(
        SMMPParams(
            n_processors=4, n_lps=2, n_banks=4,
            requests_per_processor=5, pipeline_depth=2,
        )
    )


#: app name -> (partition builder, virtual-time horizon)
APPS = {
    "phold": (_build_phold_workload, PHOLD_END_TIME),
    "smmp": (_build_smmp_workload, float("inf")),
}

_golden_cache: dict[str, list] = {}


def golden_trace(app: str) -> list:
    """The sequential kernel's committed trace for ``app`` (cached)."""
    trace = _golden_cache.get(app)
    if trace is None:
        build, end_time = APPS[app]
        seq = SequentialSimulation(
            [obj for group in build() for obj in group],
            record_trace=True, end_time=end_time,
        )
        seq.run()
        trace = _golden_cache[app] = seq.sorted_trace()
    return trace


@dataclass(frozen=True)
class FuzzCase:
    """Outcome of one (app, plan) fuzz run."""

    app: str
    plan_seed: int
    gvt_algorithm: str
    trace_match: bool
    violations: tuple[str, ...]
    committed: int
    expected: int
    faults_injected: int
    retransmissions: int
    oracle_checks: int
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.trace_match and not self.violations and not self.error


@dataclass
class FuzzReport:
    """Outcome of a full sweep."""

    cases: list[FuzzCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list[FuzzCase]:
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        lines = []
        by_app: dict[str, int] = {}
        faults = retrans = checks = 0
        for case in self.cases:
            by_app[case.app] = by_app.get(case.app, 0) + 1
            faults += case.faults_injected
            retrans += case.retransmissions
            checks += case.oracle_checks
        per_app = ", ".join(f"{app}: {n}" for app, n in sorted(by_app.items()))
        lines.append(
            f"fuzzed {len(self.cases)} case(s) ({per_app}); "
            f"{faults} fault(s) injected, {retrans} retransmission(s), "
            f"{checks} oracle check(s)"
        )
        for case in self.failures:
            detail = case.error or (
                f"trace_match={case.trace_match} "
                f"({case.committed}/{case.expected} events) "
                f"violations={list(case.violations)}"
            )
            lines.append(
                f"  FAIL {case.app} plan_seed={case.plan_seed} "
                f"gvt={case.gvt_algorithm}: {detail}"
            )
        lines.append("PASS" if self.ok else f"FAIL ({len(self.failures)} case(s))")
        return "\n".join(lines)


def run_case(app: str, plan: FaultPlan, *, gvt_algorithm: str) -> FuzzCase:
    """One differential run of ``app`` under ``plan``."""
    build, end_time = APPS[app]
    expected = golden_trace(app)
    oracle = InvariantOracle()
    config = SimulationConfig(
        end_time=end_time,
        record_trace=True,
        faults=plan,
        oracle=oracle,
        gvt_algorithm=gvt_algorithm,
        max_executed_events=MAX_EXECUTED_EVENTS,
    )
    error = ""
    trace_match = False
    committed = 0
    faults_injected = retransmissions = 0
    try:
        sim = TimeWarpSimulation(build(), config)
        sim.run()
        committed = len(sim.trace or ())
        trace_match = sim.sorted_trace() == expected
        network = sim.executive.network
        assert isinstance(network, FaultyNetwork)
        faults_injected = network.counters.faults_injected()
        retransmissions = network.counters.retransmissions
    except Exception as exc:  # a crash is a finding, not a harness abort
        error = f"{type(exc).__name__}: {exc}"
    return FuzzCase(
        app=app,
        plan_seed=plan.seed,
        gvt_algorithm=gvt_algorithm,
        trace_match=trace_match,
        violations=tuple(v.invariant for v in oracle.violations),
        committed=committed,
        expected=len(expected),
        faults_injected=faults_injected,
        retransmissions=retransmissions,
        oracle_checks=oracle.checks,
        error=error,
    )


def run_fuzz(
    plans: int = 100,
    *,
    apps: tuple[str, ...] = ("phold", "smmp"),
    rates: FaultRates = DEFAULT_RATES,
) -> FuzzReport:
    """Sweep ``plans`` seeded fault plans over ``apps``.

    Seed ``s`` runs with the omniscient GVT when even and Mattern when
    odd, so both estimators face every second plan."""
    report = FuzzReport()
    for seed in range(plans):
        plan = make_plan(seed, rates)
        gvt = "mattern" if seed % 2 else "omniscient"
        for app in apps:
            report.cases.append(run_case(app, plan, gvt_algorithm=gvt))
    return report
