"""A deterministic gate on the hot loop's call count.

Timings drift with the host; the number of Python calls a fixed model
makes does not (it repeats exactly, ``PYTHONHASHSEED`` or not).  Three
small runs execute under ``cProfile`` and the total calls — Python
frames and C built-ins, as ``benchmarks/e2e`` counts ``calls_per_event`` —
per committed event must stay within a budget set 5 % above the reading
under pytest when it was pinned:

* a PHOLD of the ``phold_skew`` shape, modelled: 113.3, and 115.4 before
  a local send took one lookup of its receiver (below); 120.8 when every
  object kept its own heap of pending events and the LP a second heap of
  their heads, re-filed at every change (the per-event call diet had
  taken it from 230.8 to 127.1, checkpointing through the state's own
  ``copy()`` and reading the size recorded at save to 120.8).
  ``PHOLDState`` writes its own ``copy``/``size_bytes``, so this gate
  never reaches the generic ``RecordState`` path;
* an SMMP of the ``smmp_online`` shape (sub-seed 40, the three controllers
  on), whose sources, buses, banks and collectors checkpoint through the
  compiled ``RecordState`` methods: 50.1, and 52.4 before the one-lookup
  local send; 58.7 with the two heaps, and 87.4 when every state was
  sized field by field at each save, restore and fossil collection;
* the same PHOLD run by the conservative driver, where every event
  commits at once: 39.0, down from 43.6 when a local send was routed
  through the routing map and then delivered through a second lookup of
  its receiver, ``execute_one`` called ``next_work()`` for the head it
  then popped, and the round loop called ``next_work()`` again for it.

The failure message names the modules that grew.
"""

import cProfile
import pstats
from collections import Counter
from pathlib import Path

import repro
from repro import SimulationConfig, TimeWarpSimulation
from repro.apps import PHOLDParams, build_phold
from repro.conservative import ConservativeSimulation
from tests.integration.test_hot_loop_invariance import smmp_online

CALLS_PER_COMMITTED_EVENT_BUDGET = 121.2
SMMP_CALLS_PER_COMMITTED_EVENT_BUDGET = 55.0
CONSERVATIVE_CALLS_PER_COMMITTED_EVENT_BUDGET = 41.0

REPRO_ROOT = Path(repro.__file__).resolve().parent


def _module(filename: str) -> str:
    try:
        return Path(filename).resolve().relative_to(REPRO_ROOT).as_posix()
    except ValueError:
        return "(builtins, stdlib, numpy)"


def _assert_within_budget(sim, committed_want: int, budget: float) -> None:
    profile = cProfile.Profile()
    profile.enable()
    stats = sim.run()
    profile.disable()

    calls: Counter = Counter()
    for (filename, _line, _name), (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        calls[_module(filename)] += ncalls
    committed = stats.committed_events
    assert committed == committed_want  # the model is fixed; so is its call count
    per_event = sum(calls.values()) / committed
    breakdown = "\n".join(
        f"  {module:32s} {count / committed:7.2f}" for module, count in calls.most_common(12)
    )
    assert per_event <= budget, (
        f"{per_event:.1f} Python calls per committed event exceeds the budget of "
        f"{budget}; calls per committed event by module:\n{breakdown}"
    )


PHOLD_SKEW = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=2, seed=40)
SPEED_FACTORS = {1: 1.3, 2: 1.6, 3: 2.0}


def test_calls_per_committed_event_within_budget():
    config = SimulationConfig(end_time=2_000.0, lp_speed_factors=SPEED_FACTORS)
    sim = TimeWarpSimulation(build_phold(PHOLD_SKEW), config)
    _assert_within_budget(sim, 2303, CALLS_PER_COMMITTED_EVENT_BUDGET)


def test_smmp_online_calls_per_committed_event_within_budget():
    sim = TimeWarpSimulation(*smmp_online())
    _assert_within_budget(sim, 9741, SMMP_CALLS_PER_COMMITTED_EVENT_BUDGET)


def test_conservative_calls_per_committed_event_within_budget():
    config = SimulationConfig(end_time=2_000.0, lp_speed_factors=SPEED_FACTORS)
    sim = ConservativeSimulation(build_phold(PHOLD_SKEW), config)
    _assert_within_budget(sim, 2303, CONSERVATIVE_CALLS_PER_COMMITTED_EVENT_BUDGET)
