"""Ablation A2 — dynamic-cancellation parameter sensitivity.

Section 5's anti-thrashing trio: deep filters, infrequent control, and
the dead zone between A2L and L2A.  This ablation verifies that the DC
controller is robust across those knobs on RAID — every parameterization
must stay within a few percent of the best, and mode switching must not
thrash (bounded switches per object).
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS
from repro.bench.tables import render_results

ablation_cancellation, TITLE = ABLATIONS["cancellation"]


def test_abl_cancellation_parameters(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_cancellation(scale_or(0.15), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    times = {r.label: r.execution_time_us for r in results}
    best = min(times.values())
    # robustness: no parameterization collapses
    for label, t in times.items():
        assert t < best * 1.10, f"{label} fell off the cliff"

    # hysteresis works: the paper configuration does not thrash (few mode
    # switches per object over the whole run)
    paper = next(r for r in results if r.label == "fd=16 (paper)")
    n_objects = 32
    assert paper.extra["switches"] / n_objects < 4
