"""Every driver runs its event loop with the cyclic collector off
(``kernel/kernel.py:suspend_collector``; docs/architecture.md, "The event
loop and the cyclic collector").

Two guarantees make that safe and exact:

* a run makes no cyclic garbage, so suspending the collector frees
  nothing late: ``gc.collect()`` taken after ``run()``, while the
  simulation is still referenced, finds nothing to free on every
  in-process corpus scenario and on the e2e shapes under every
  in-process driver;
* the model sees the collector off on every event, under every driver
  and in both shards of a 2-worker process-backend run, and the caller
  gets the collector back exactly as it left it: enabled, disabled by the
  caller, or after a model exception escaped ``run()``.
"""

from __future__ import annotations

import gc
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.conservative import ConservativeSimulation
from repro.kernel.errors import ApplicationError
from repro.kernel.kernel import suspend_collector
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState
from repro.oracle import InvariantOracle
from repro.parallel import ParallelSimulation, WorkerFailedError
from repro.partition import profile_model
from repro.trace import Tracer
from repro.verify.corpus import corpus_files, load_scenario_file
from repro.verify.runner import MAX_EXECUTED_EVENTS
from tests.helpers import flatten
from tests.integration.test_hot_loop_invariance import phold_skew, smmp_online

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
IN_PROCESS = [
    path for path in corpus_files(CORPUS_DIR)
    if load_scenario_file(path)[0].backend != "parallel"
]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)


@pytest.fixture(autouse=True)
def collector_enabled():
    """Each test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    gc.enable()


def _leaves_no_cyclic_garbage(sim) -> None:
    gc.collect()  # what building the simulation (or an earlier test) left
    sim.run()
    assert gc.collect() == 0  # ``sim`` is still referenced: only the run counts


# --------------------------------------------------------------------------- #
# (a) a run makes no cyclic garbage
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("path", IN_PROCESS, ids=lambda p: p.stem)
def test_a_corpus_scenario_leaves_no_cyclic_garbage(path):
    """As the corpus replays them: oracle armed, tracer on, trace recorded."""
    scenario, _digest = load_scenario_file(path)
    config = scenario.build_config(
        record_trace=True,
        oracle=InvariantOracle(),
        tracer=Tracer(capacity=4096),
        max_executed_events=MAX_EXECUTED_EVENTS,
    )
    driver = (
        ConservativeSimulation if scenario.backend == "conservative"
        else TimeWarpSimulation
    )
    _leaves_no_cyclic_garbage(driver(scenario.build_partition(), config))


def test_the_in_process_corpus_is_all_swept():
    assert len(IN_PROCESS) == 11
    apps = {load_scenario_file(p)[0].app for p in IN_PROCESS}
    assert apps == {"phold", "pingpong", "raid", "smmp"}


SHAPES = {"phold_skew": phold_skew, "smmp_online": smmp_online}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("driver", ["modelled", "conservative", "sequential"])
def test_an_e2e_shape_leaves_no_cyclic_garbage(shape, driver):
    partition, config = SHAPES[shape]()
    if driver == "modelled":
        sim = TimeWarpSimulation(partition, config)
    elif driver == "conservative":
        sim = ConservativeSimulation(partition, config)
    else:
        sim = SequentialSimulation(flatten(partition), end_time=config.end_time)
    _leaves_no_cyclic_garbage(sim)


# --------------------------------------------------------------------------- #
# (b) the model sees the collector off; the caller gets it back as it was
# --------------------------------------------------------------------------- #
@dataclass
class ProbeState(RecordState):
    events: int = 0
    #: events that ran with the cyclic collector enabled
    collecting: int = 0


class Probe(SimulationObject):
    """Passes a token round a ring of probes, noting the collector's state
    at every event; raises on token ``fail_at`` when one is set."""

    def __init__(self, name: str, peer: str, rounds: int,
                 fail_at: int | None = None) -> None:
        super().__init__(name)
        self.peer = peer
        self.rounds = rounds
        self.fail_at = fail_at
        self.lookahead = 10.0

    def initial_state(self) -> ProbeState:
        return ProbeState()

    def initialize(self) -> None:
        self.send_event(self.peer, 10.0, 0)

    def execute_process(self, payload: int) -> None:
        state: ProbeState = self.state
        state.events += 1
        state.collecting += gc.isenabled()
        if payload == self.fail_at:
            raise RuntimeError("model failure")
        if payload + 1 < self.rounds:
            self.send_event(self.peer, 10.0, payload + 1)


def probes(n: int = 4, rounds: int = 40, fail_at: int | None = None):
    """``n`` probes in a ring, one per group."""
    return [
        [Probe(f"p{i}", f"p{(i + 1) % n}", rounds, fail_at)] for i in range(n)
    ]


def _run(driver: str, partition, config_kwargs: dict | None = None) -> None:
    config_kwargs = config_kwargs or {}
    if driver == "modelled":
        TimeWarpSimulation(partition, SimulationConfig(**config_kwargs)).run()
    elif driver == "phased":  # advance_to, then finish
        sim = TimeWarpSimulation(partition, SimulationConfig(**config_kwargs))
        sim.advance_to(150.0)
        sim.finish()
    elif driver == "conservative":
        ConservativeSimulation(partition, SimulationConfig(**config_kwargs)).run()
    elif driver == "sequential":
        SequentialSimulation(flatten(partition)).run()
    elif driver == "pilot":
        profile_model(flatten(partition))
    else:
        raise AssertionError(driver)


IN_PROCESS_DRIVERS = ["modelled", "phased", "conservative", "sequential", "pilot"]


@pytest.mark.parametrize("driver", IN_PROCESS_DRIVERS)
def test_the_model_sees_the_collector_off_on_every_event(driver):
    partition = probes()
    _run(driver, partition, {"end_time": 1e6})
    states = [obj.state for obj in flatten(partition)]
    assert sum(s.events for s in states) > 0
    assert [s.collecting for s in states] == [0] * len(states)
    assert gc.isenabled()


@pytest.mark.parametrize("driver", IN_PROCESS_DRIVERS)
def test_a_collector_the_caller_disabled_stays_disabled(driver):
    gc.disable()
    _run(driver, probes())
    assert not gc.isenabled()


@pytest.mark.parametrize("driver", ["modelled", "conservative", "sequential"])
def test_the_collector_comes_back_after_a_model_exception(driver):
    with pytest.raises(ApplicationError):
        _run(driver, probes(fail_at=7))
    assert gc.isenabled()


@needs_fork
class TestProcessBackend:
    @staticmethod
    def _parallel(fail_at: int | None = None) -> ParallelSimulation:
        config = SimulationConfig(backend="parallel", workers=2, end_time=1e6)
        return ParallelSimulation(probes(fail_at=fail_at), config, timeout_s=30.0)

    def test_both_shards_see_the_collector_off_on_every_event(self):
        sim = self._parallel()
        sim.run()
        assert gc.isenabled()
        # groups fold onto shards 0, 1, 0, 1: each shard hosts two probes
        states = sim.final_states
        assert sorted(states) == ["p0", "p1", "p2", "p3"]
        assert sum(s.events for s in states.values()) == 4 * 40
        assert [s.collecting for s in states.values()] == [0] * 4

    def test_a_collector_the_caller_disabled_stays_disabled(self):
        gc.disable()
        self._parallel().run()
        assert not gc.isenabled()

    def test_the_collector_comes_back_after_a_worker_failure(self):
        with pytest.raises(WorkerFailedError):
            self._parallel(fail_at=7).run()
        assert gc.isenabled()


def test_nested_loops_restore_the_outer_state():
    seen = []

    @suspend_collector
    def inner():
        seen.append(gc.isenabled())

    @suspend_collector
    def outer():
        inner()
        seen.append(gc.isenabled())

    outer()
    assert seen == [False, False] and gc.isenabled()
    gc.disable()
    outer()
    assert seen[2:] == [False, False] and not gc.isenabled()


def test_a_dropped_sequential_simulation_needs_no_collector():
    """The sequential kernel's services hold its event list and clocks,
    not the kernel: a golden or a placement pilot that goes out of scope
    is freed at once, before the next run can raise the peak."""
    partition, config = smmp_online()
    seq = SequentialSimulation(
        flatten(partition), end_time=config.end_time, record_trace=True
    )
    seq.run()
    gc.collect()
    del seq, partition
    assert gc.collect() == 0
