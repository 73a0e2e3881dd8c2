"""Ablation A1 — the static checkpoint-interval U-curve.

The paper motivates dynamic check-pointing with the observation that
"some applications operate best with a fairly small value; while others
require much larger values" and that no static analysis exists.  This
sweep regenerates the underlying U on a rollback-heavy, large-state
PHOLD: save-every-event pays maximal state saving (left arm); huge
intervals pay long coast-forwards on every rollback (right arm); the
optimum is interior.  The dynamic controllers must land near the static
optimum without being told where it is.
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS, CHECKPOINT_CHIS as CHIS
from repro.bench.tables import render_results

ablation_checkpoint, TITLE = ABLATIONS["checkpoint"]


def test_abl_checkpoint_interval_ucurve(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_checkpoint(scale_or(0.1), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    static = {r.x: r.execution_time_us for r in results if r.label.startswith("chi=")}
    dynamic = next(r for r in results if r.label == "dynamic").execution_time_us
    hill = next(r for r in results if r.label == "hillclimb").execution_time_us

    best_chi = min(static, key=static.get)
    # interior optimum: both arms of the U are visible
    assert 1 < best_chi < max(CHIS)
    assert static[1] > static[best_chi] * 1.03
    assert static[max(CHIS)] > static[best_chi] * 1.05
    # both dynamic controllers close most of the chi=1 -> optimum gap
    for t in (dynamic, hill):
        assert t < static[1]
        closed = (static[1] - t) / (static[1] - static[best_chi])
        assert closed > 0.5
