"""Ablation A6 — partitioning strategy and its interaction with
cancellation.

Two of the paper's observations hinge on the partition:

* the models are hand-partitioned "to take advantage of the fast
  intra-LP communication" — this ablation quantifies how much that is
  worth by comparing round-robin, greedy-growth, Kernighan-Lin and the
  hand-crafted partition on SMMP;
* "the optimal [cancellation] strategy is sensitive to the partitioning
  scheme" — measured here as the AC-vs-LC gap under two partitions.
"""

from conftest import REPLICATES, scale_or

from repro.bench.ablations import ABLATIONS
from repro.bench.tables import render_results

ablation_partitioning, TITLE = ABLATIONS["partitioning"]


def test_abl_partitioning(benchmark, show):
    results = benchmark.pedantic(
        lambda: ablation_partitioning(scale_or(0.1), REPLICATES), rounds=1, iterations=1
    )
    show(render_results(results, TITLE))

    times = {r.label: r.execution_time_us for r in results}
    # locality-aware partitions massively beat round-robin
    assert times["greedy/AC"] < times["round-robin/AC"] / 2
    assert times["kernighan-lin/AC"] < times["round-robin/AC"] / 2
    # and are at least competitive with the hand-crafted one
    assert times["greedy/AC"] < times["hand-crafted/AC"] * 1.15

    # the paper: the optimal cancellation strategy is sensitive to the
    # partitioning scheme — the AC-vs-LC gap differs across partitions
    def gap(name):
        return (times[f"{name}/AC"] - times[f"{name}/LC"]) / times[f"{name}/AC"]

    gaps = {name: gap(name) for name in
            ("hand-crafted", "round-robin", "greedy", "kernighan-lin")}
    assert max(gaps.values()) - min(gaps.values()) > 0.01
