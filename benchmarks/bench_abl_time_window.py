"""Ablation A5 — bounded time windows (optimism throttling, extension).

Reference [20] of the paper bounds how far an LP may run ahead of GVT.
On a heavily skewed NOW, pure Time Warp wastes a large share of its work
on rollbacks; a well-chosen static window prunes that waste, but the
right width is workload-dependent — so the window is the fourth facet
configured on line with the same <O,I,S,T,P> machinery.  The adaptive
controller must beat pure Time Warp *and* land within range of the best
static window, without being told it.
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS
from repro.bench.tables import render_results

ablation_time_window, TITLE = ABLATIONS["time-window"]


def test_abl_time_window(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_time_window(scale_or(0.1), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    pure = next(r for r in results if r.label == "unbounded")
    adaptive = next(r for r in results if r.label == "adaptive")
    statics = {r.x: r for r in results if r.label.startswith("static")}

    # throttling prunes wasted work on this workload
    best_static = min(r.execution_time_us for r in statics.values())
    assert best_static < pure.execution_time_us
    # the adaptive controller beats pure Time Warp...
    assert adaptive.execution_time_us < pure.execution_time_us
    assert adaptive.rollbacks < pure.rollbacks
    # ...and is competitive with the best static window (within 25 %)
    assert adaptive.execution_time_us < best_static * 1.25
