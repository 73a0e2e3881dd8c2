"""Ablation A3 — control invocation period P.

Section 3: "control should not be adapted at a high frequency, or the
overhead for tuning the simulator will outweigh the benefits from the
better configuration."  Sweeping the checkpoint controller's P on SMMP
must show both failure modes bounded: very small P pays control overhead
and jitter, very large P adapts too slowly; a broad middle band works.
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS
from repro.bench.tables import render_results

ablation_control_period, TITLE = ABLATIONS["control-period"]


def test_abl_control_period(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_control_period(scale_or(0.1), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    static = next(r for r in results if r.label == "static chi=1")
    periods = {r.x: r.execution_time_us for r in results if r.x > 0}

    # the middle band beats no-control
    mid = [periods[p] for p in (8, 16, 64)]
    assert min(mid) < static.execution_time_us
    # an extreme period adapts too slowly to fully close the gap
    assert periods[256] > min(mid)
