"""Ablation A4 — GVT period and algorithm.

GVT estimation reclaims history memory but costs CPU (and, for Mattern's
algorithm, control messages through the same network as application
traffic).  Sweeping the period on RAID shows the trade: very frequent
GVT pays overhead; very infrequent GVT lets history queues grow.  The
distributed Mattern algorithm must track the omniscient estimator's
results at a visible but bounded extra cost.
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS, GVT_PERIODS as PERIODS
from repro.bench.tables import render_results

ablation_gvt_period, TITLE = ABLATIONS["gvt-period"]


def test_abl_gvt_period(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_gvt_period(scale_or(0.1), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    omni = {r.x: r for r in results if r.label == "omniscient"}
    matt = {r.x: r for r in results if r.label == "mattern"}

    # infrequent GVT leaves much more history un-reclaimed
    assert omni[PERIODS[-1]].extra["peak_state_queue"] > (
        2 * omni[PERIODS[0]].extra["peak_state_queue"]
    )
    # Mattern's control traffic costs something but stays bounded
    for period in PERIODS:
        ratio = matt[period].execution_time_us / omni[period].execution_time_us
        assert ratio < 1.5
    # at the most aggressive period, the distributed algorithm's extra
    # cost is actually visible in the modelled execution time
    assert matt[PERIODS[0]].execution_time_us > omni[PERIODS[0]].execution_time_us
