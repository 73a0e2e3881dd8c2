"""The hot loop's "must not move" list, pinned as literals.

Recorded on the commit *before* the per-event path was rewritten
(ISSUE 16) and passed unedited by the rewrite: whatever the loop does to
its call graph, a run must execute, roll back, cancel, save, send and
commit exactly what it did before, on the modelled clock to the last
digit.  Of the three configurations, two are the ``phold_skew`` and
``smmp_online`` shapes of ``benchmarks/e2e/workloads.py`` at sub-seed 40
(``--seed 5``, instance 0), rebuilt here from the public API; ``raid`` is
the 25-request RAID under its paper profile, recorded on the commit
before ISSUE 20 deleted the perf suite whose CI gate alone pinned it.
The memory high-water marks (``peak_state_*``) were recorded while every
snapshot was still re-measured at each fossil collection; they prove that
sizes recorded once per snapshot charge and sample exactly what that walk
did.
"""

import pytest

from repro import SimulationConfig, TimeWarpSimulation
from repro.apps import (
    PHOLDParams,
    RAIDParams,
    SMMPParams,
    build_phold,
    build_raid,
    build_smmp,
)
from repro.bench.harness import RAID_PROFILE, SMMP_PROFILE
from repro.control import dynamic_config_kwargs

SUB_SEED = 40


def phold_skew():
    params = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=2, seed=SUB_SEED)
    config = SimulationConfig(end_time=6_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0})
    return build_phold(params), config


def smmp_online():
    params = SMMPParams(requests_per_processor=120, seed=SUB_SEED)
    config = SMMP_PROFILE.config(
        seed=SUB_SEED,
        **dynamic_config_kwargs(("checkpoint", "cancellation", "aggregation")),
    )
    return build_smmp(params), config


def raid():
    return build_raid(RAIDParams(requests_per_source=25)), RAID_PROFILE.config(seed=0)


PINNED = {
    "phold_skew": (
        phold_skew,
        {
            "committed": 6949,
            "rate": "1367.495899019805",
            "executed": 10100,
            "rollbacks": 2021,
            "antis_sent": 3151,
            "state_saves": 10100,
            "physical_messages": 10612,
            "gvt_rounds": 404,
            "peak_state_bytes": 832,
            "peak_state_entries": 52,
        },
    ),
    "smmp_online": (
        smmp_online,
        {
            "committed": 9741,
            "rate": "11630.686606520932",
            "executed": 10980,
            "rollbacks": 304,
            "antis_sent": 413,
            "state_saves": 4278,
            "physical_messages": 1197,
            "gvt_rounds": 64,
            "peak_state_bytes": 400176,
            "peak_state_entries": 339,
        },
    ),
    "raid": (
        raid,
        {
            "committed": 1665,
            "rate": "3882.0041327056656",
            "executed": 1929,
            "rollbacks": 141,
            "antis_sent": 228,
            "state_saves": 1929,
            "physical_messages": 1089,
            "gvt_rounds": 32,
            "peak_state_bytes": 81776,
            "peak_state_entries": 87,
        },
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_counters_and_modelled_rate_do_not_move(workload):
    build, want = PINNED[workload]
    partition, config = build()
    stats = TimeWarpSimulation(partition, config).run()
    got = {
        "committed": stats.committed_events,
        "rate": repr(stats.committed_events_per_second),
        "executed": stats.executed_events,
        "rollbacks": stats.rollbacks,
        "antis_sent": stats.antis_sent,
        "state_saves": stats.state_saves,
        "physical_messages": stats.physical_messages,
        "gvt_rounds": stats.gvt_rounds,
        "peak_state_bytes": stats.peak_state_bytes,
        "peak_state_entries": stats.peak_state_entries,
    }
    assert got == want
