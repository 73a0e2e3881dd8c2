"""A deterministic gate on the hot loop's call count.

Timings drift with the host; the number of Python calls a fixed model
makes does not (it repeats exactly, ``PYTHONHASHSEED`` or not).  Two small
modelled runs execute under ``cProfile`` and the total calls — Python
frames and C built-ins, as ``benchmarks/e2e`` counts ``calls_per_event`` —
per committed event must stay within a budget set 5 % above the reading
under pytest:

* a PHOLD of the ``phold_skew`` shape: 125.5, since the kernel checkpoints
  through the state's own ``copy()`` with no strategy frame in between
  (the per-event call diet had already taken it from 230.8 to 127.1).
  It reads 120.8 now that a restore and the fossil-collection sample read
  the size recorded at save.  ``PHOLDState`` writes its own
  ``copy``/``size_bytes``, so this gate never reaches the generic
  ``RecordState`` path;
* an SMMP of the ``smmp_online`` shape (sub-seed 40, the three controllers
  on), whose sources, buses, banks and collectors checkpoint through the
  compiled ``RecordState`` methods: 58.9, down from 87.4 when every state
  was sized field by field at each save, restore and fossil collection.

The failure message names the modules that grew.
"""

import cProfile
import pstats
from collections import Counter
from pathlib import Path

import repro
from repro import SimulationConfig, TimeWarpSimulation
from repro.apps import PHOLDParams, build_phold
from tests.integration.test_hot_loop_invariance import smmp_online

CALLS_PER_COMMITTED_EVENT_BUDGET = 131.7
SMMP_CALLS_PER_COMMITTED_EVENT_BUDGET = 61.9

REPRO_ROOT = Path(repro.__file__).resolve().parent


def _module(filename: str) -> str:
    try:
        return Path(filename).resolve().relative_to(REPRO_ROOT).as_posix()
    except ValueError:
        return "(builtins, stdlib, numpy)"


def _assert_within_budget(partition, config, committed_want: int, budget: float) -> None:
    profile = cProfile.Profile()
    profile.enable()
    stats = TimeWarpSimulation(partition, config).run()
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


def test_calls_per_committed_event_within_budget():
    params = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=2, seed=40)
    config = SimulationConfig(end_time=2_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0})
    _assert_within_budget(build_phold(params), config, 2303, CALLS_PER_COMMITTED_EVENT_BUDGET)


def test_smmp_online_calls_per_committed_event_within_budget():
    partition, config = smmp_online()
    _assert_within_budget(partition, config, 9741, SMMP_CALLS_PER_COMMITTED_EVENT_BUDGET)
