"""A deterministic gate on the cyclic collector's passes inside a run.

A run's history stays live until a GVT commit collects it, and the run
makes no reference cycles (tests/kernel/test_collector.py), so a
generational pass inside the event loop rescans that history to free
nothing.  With the collector on, the SMMP model of ``smmp_online``'s
shape (sub-seed 40, the three controllers on, 9 741 commits) made 58
gen-0 and 5 gen-1 passes inside ``run()``; every driver now suspends the
collector for its loop (``kernel/kernel.py:suspend_collector``), and the
count must stay 0.

The count is read off ``gc.callbacks``: it repeats exactly, where the
time it costs does not.  The first allocation after ``run()`` returns
makes one gen-0 pass over what the run left live; that pass falls after
the count is read, as it falls after the timed region of an e2e rep.
"""

import gc
from collections import Counter

from repro import TimeWarpSimulation
from tests.integration.test_hot_loop_invariance import smmp_online


def test_smmp_online_makes_no_collector_pass_inside_run():
    sim = TimeWarpSimulation(*smmp_online())
    gc.collect()
    passes: list[int] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        stats = sim.run()
        inside = len(passes)  # read before anything allocates
    finally:
        gc.callbacks.remove(count)
    assert stats.committed_events == 9741  # the model is fixed
    by_generation = Counter(passes[:inside])
    assert inside == 0, (
        f"{inside} collector passes inside run() (by generation: "
        f"{dict(sorted(by_generation.items()))}); the event loop must run "
        "with the collector off"
    )
