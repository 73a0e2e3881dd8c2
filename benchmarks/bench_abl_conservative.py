"""Ablation A7 — optimistic vs conservative synchronization.

The paper's opening claim (via Fujimoto [9]): Time Warp "has the
potential to outperform" conservative approaches.  With both kernels
implementing the same WARPED interface over the same cost model, the
comparison is apples-to-apples:

SMMP's lookahead is tiny (1 ns — the source-to-cache delay) relative to
its virtual horizon, so the conservative kernel needs thousands of
barrier rounds; Time Warp wins by a factor of ~2 in both regimes, paying
instead with rollbacks (zero for conservative, by construction).  This
is Fujimoto's classic observation in miniature: conservative performance
is hostage to the model's lookahead, optimistic performance to its
rollback behavior.
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS
from repro.bench.tables import render_results

ablation_conservative, TITLE = ABLATIONS["conservative"]


def test_abl_conservative_vs_optimistic(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_conservative(scale_or(0.1), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    times = {r.label: r.execution_time_us for r in results}
    rollbacks = {r.label: r.rollbacks for r in results}
    # Time Warp wins in both regimes on this low-lookahead model
    assert times["TW lazy / balanced"] < times["conservative / balanced"]
    assert times["TW lazy / skewed NOW"] < times["conservative / skewed NOW"]
    # the trade is real on both sides: conservative never rolls back,
    # Time Warp does (and still wins)
    assert rollbacks["conservative / balanced"] == 0
    assert rollbacks["conservative / skewed NOW"] == 0
    assert rollbacks["TW lazy / skewed NOW"] > 0
