"""One ledger: every driver folds the LPs' own counters into ``RunStats``.

The wire totals of a run are what the sending LPs counted, so they must
balance against what the receiving LPs counted, on every driver.  It sits
in tests/parallel so the process backend's case runs under the hang
guard.
"""

import multiprocessing

import pytest

from repro import SimulationConfig, TimeWarpSimulation
from repro.apps import PHOLDParams, build_phold
from repro.conservative import ConservativeSimulation
from repro.parallel import ParallelSimulation
from repro.stats.counters import RunStats

PARAMS = PHOLDParams(n_objects=8, n_lps=2, jobs_per_object=2, seed=11)
END_TIME = 600.0


def _modelled():
    config = SimulationConfig(end_time=END_TIME, lp_speed_factors={1: 1.7})
    return TimeWarpSimulation(build_phold(PARAMS), config)


def _conservative():
    return ConservativeSimulation(build_phold(PARAMS), SimulationConfig(end_time=END_TIME))


def _parallel():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("parallel backend requires the fork start method")
    config = SimulationConfig(backend="parallel", workers=2, end_time=END_TIME)
    return ParallelSimulation(build_phold(PARAMS), config, timeout_s=60.0)


@pytest.mark.parametrize("make", [_modelled, _conservative, _parallel],
                         ids=["modelled", "conservative", "parallel-2w"])
def test_wire_totals_balance_and_busy_time_is_the_clock_less_idle(make, monkeypatch):
    folded = {}
    fold_lp = RunStats.fold_lp

    def spy(self, lp_id, clock, lp_stats, object_stats):
        fold_lp(self, lp_id, clock, lp_stats, object_stats)
        folded[lp_id] = clock, lp_stats

    monkeypatch.setattr(RunStats, "fold_lp", spy)
    stats = make().run()
    lps = stats.per_lp.values()
    assert stats.committed_events > 0
    assert stats.events_on_wire > 0 and stats.bytes_on_wire > 0
    assert stats.events_on_wire == sum(lp.remote_events_received for lp in lps)
    assert stats.physical_messages == sum(lp.physical_messages_received for lp in lps)
    assert set(folded) == set(stats.per_lp) == {0, 1}
    for clock, lp in folded.values():
        assert 0 < lp.busy_time == clock - lp.idle_time
