"""A deterministic gate on the hot loop's call count.

Timings drift with the host; the number of Python calls a fixed model
makes does not (it repeats exactly, ``PYTHONHASHSEED`` or not).  A small
modelled PHOLD of the ``phold_skew`` shape runs under ``cProfile`` and the
total calls — Python frames and C built-ins, as ``benchmarks/e2e`` counts
``calls_per_event`` — per committed event must stay within a budget set
5 % above the reading under pytest: 125.5, since the kernel checkpoints
through the state's own ``copy()`` with no strategy frame in between
(the per-event call diet had already taken it from 230.8 to 127.1).
The failure message names the modules that grew.
"""

import cProfile
import pstats
from collections import Counter
from pathlib import Path

import repro
from repro import SimulationConfig, TimeWarpSimulation
from repro.apps import PHOLDParams, build_phold

CALLS_PER_COMMITTED_EVENT_BUDGET = 131.7

REPRO_ROOT = Path(repro.__file__).resolve().parent


def _module(filename: str) -> str:
    try:
        return Path(filename).resolve().relative_to(REPRO_ROOT).as_posix()
    except ValueError:
        return "(builtins, stdlib, numpy)"


def test_calls_per_committed_event_within_budget():
    params = PHOLDParams(n_objects=16, n_lps=4, jobs_per_object=2, seed=40)
    config = SimulationConfig(end_time=2_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0})
    profile = cProfile.Profile()
    profile.enable()
    stats = TimeWarpSimulation(build_phold(params), config).run()
    profile.disable()

    calls: Counter = Counter()
    for (filename, _line, _name), (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items():
        calls[_module(filename)] += ncalls
    committed = stats.committed_events
    assert committed == 2303  # the model is fixed; so is its call count
    per_event = sum(calls.values()) / committed
    breakdown = "\n".join(
        f"  {module:32s} {count / committed:7.2f}" for module, count in calls.most_common(12)
    )
    assert per_event <= CALLS_PER_COMMITTED_EVENT_BUDGET, (
        f"{per_event:.1f} Python calls per committed event exceeds the budget of "
        f"{CALLS_PER_COMMITTED_EVENT_BUDGET}; calls per committed event by module:\n{breakdown}"
    )
