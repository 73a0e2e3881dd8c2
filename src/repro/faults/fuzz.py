"""The fault-fuzz sweep: seeded fault plans as verify scenarios.

For each seeded :class:`~repro.faults.plan.FaultPlan` the sweep runs the
Time Warp kernel over a fault-injecting wire through the one
differential harness (:func:`repro.verify.runner.run_scenario`), which
asserts that the committed-event trace equals the sequential golden's
(faults may change the *path* — rollbacks, retransmissions — never the
committed result) and that the invariant oracle reports zero violations.

Plans alternate the GVT algorithm (omniscient / Mattern) per seed so the
distributed GVT's colouring is fuzzed too.  Used by the property tests in
``tests/properties/test_fault_fuzz.py`` and by ``repro-bench faults``
(docs/robustness.md).
"""

from __future__ import annotations

from typing import Iterator

from ..verify.scenario import Scenario
from .plan import FaultPlan, FaultRates

#: Default sweep rates: every fault class enabled, drop+dup+reorder per
#: the acceptance bar, plus a little extra latency noise.
DEFAULT_RATES = FaultRates(drop=0.08, duplicate=0.08, delay=0.06, reorder=0.08)

#: The sweep's workloads, app -> virtual-time horizon: PHOLD is unbounded
#: and needs one, ``None`` keeps the app's own.  ``repro-bench parallel``
#: validates the same two.
END_TIMES: dict[str, float | None] = {"phold": 300.0, "smmp": None}


def make_plan(seed: int, rates: FaultRates = DEFAULT_RATES, **overrides) -> FaultPlan:
    """The sweep's plan for one seed (overrides forward to FaultPlan)."""
    return FaultPlan(seed=seed, rates=rates, **overrides)


def fault_scenarios(
    plans: int = 100,
    apps: tuple[str, ...] = tuple(END_TIMES),
    rates: FaultRates = DEFAULT_RATES,
) -> Iterator[Scenario]:
    """``plans`` seeded fault plans over ``apps``, as scenarios.

    Seed ``s`` runs with the omniscient GVT when even and Mattern when
    odd, so both estimators face every second plan."""
    for seed in range(plans):
        faults = make_plan(seed, rates).to_dict()
        gvt = "mattern" if seed % 2 else "omniscient"
        for app in apps:
            yield Scenario(
                app=app, end_time=END_TIMES[app], faults=faults,
                gvt_algorithm=gvt,
            )
