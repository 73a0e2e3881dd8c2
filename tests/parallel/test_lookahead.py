"""Declared lookahead and the events no peer can undo (docs/parallel.md).

Every kernel enforces a model's declared lookahead on every send; the
process backend turns it into channel clocks that let a shard commit the
events below its safe bound at once.  These tests sit in tests/parallel
so that CI's oversubscribed ``taskset`` leg runs them too: a shard that
lies about its clock must end the run in a typed, located error, never a
hang or a wrong commit.
"""

import multiprocessing
import types
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.apps import PHOLDParams, build_phold
from repro.apps.pingpong import Player
from repro.conservative import ConservativeSimulation
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.errors import ConfigurationError
from repro.oracle import InvariantOracle
from repro.parallel import ParallelSimulation, WorkerFailedError
from repro.parallel import worker as worker_mod
from tests.kernel.test_lp import build_lp, inject

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)


class _Overpromiser(Player):
    """Declares lookahead 5 but plays at delay 4."""

    def __init__(self, name, peer, serve=False):
        super().__init__(name, peer, rounds=6, delay=4.0, serve=serve)
        self.lookahead = 5.0


def _overpromising_pair():
    return [[_Overpromiser("ping", "pong", serve=True)],
            [_Overpromiser("pong", "ping")]]


class TestEveryKernelEnforcesTheDeclaration:
    def test_sequential(self):
        objects = [obj for group in _overpromising_pair() for obj in group]
        with pytest.raises(ConfigurationError, match="lookahead 5.0, got 4.0"):
            SequentialSimulation(objects).run()

    def test_modelled(self):
        with pytest.raises(ConfigurationError, match="lookahead 5.0, got 4.0"):
            TimeWarpSimulation(_overpromising_pair()).run()

    def test_conservative(self):
        with pytest.raises(ConfigurationError, match="lookahead"):
            ConservativeSimulation(_overpromising_pair()).run()

    @needs_fork
    def test_parallel(self):
        sim = ParallelSimulation(
            _overpromising_pair(),
            SimulationConfig(backend="parallel", workers=2),
            timeout_s=30.0,
        )
        with pytest.raises(
            WorkerFailedError,
            match=r"(?s)ConfigurationError: ping: .*lookahead 5.0, got 4.0",
        ):
            sim.run()

    def test_conservative_defaults_to_the_least_declaration(self):
        sim = ConservativeSimulation(
            build_phold(PHOLDParams(n_objects=4, n_lps=2, min_delay=7.0))
        )
        assert sim.lookahead == 7.0


def _phold(seed=3, locality=0.0, lookahead=None, n_objects=8):
    params = PHOLDParams(n_objects=n_objects, n_lps=2, jobs_per_object=2,
                         locality=locality, seed=seed)

    def build():
        partition = build_phold(params)
        if lookahead is not None:
            for group in partition:
                for obj in group:
                    obj.lookahead = lookahead
        return partition

    return build


def _golden(build, end_time):
    objects = [obj for group in build() for obj in group]
    seq = SequentialSimulation(objects, record_trace=True, end_time=end_time)
    seq.run()
    return (
        Counter(entry[1] for entry in seq.trace),
        {obj.name: obj.state for obj in objects},
    )


@needs_fork
def test_a_shard_publishing_inf_ends_in_a_located_error(monkeypatch):
    """Shard 1 promises it will never send again; shard 0 believes it,
    commits everything at once, and must refuse the next arrival."""
    honest = worker_mod._ShardRuntime._raise_bound

    def lying(self):
        waiting = honest(self)
        if self.shard_id == 1:
            self._clocks[1] = float("inf")
        return waiting

    monkeypatch.setattr(worker_mod._ShardRuntime, "_raise_bound", lying)
    config = SimulationConfig(
        backend="parallel", workers=2, end_time=3_000.0,
        oracle=InvariantOracle(),
    )
    sim = ParallelSimulation.from_builder(
        _phold(n_objects=16), config, timeout_s=30.0
    )
    with pytest.raises(
        WorkerFailedError,
        match=r"(?s)shard 0 crashed.*CausalityViolationError: shard 0: event "
        r"for object \d+ at t=[\d.]+ arrived below the committed safe "
        r"bound inf",
    ):
        sim.run()
    assert sim.stats is None  # nothing was committed as a result


@needs_fork
@settings(
    max_examples=6, derandomize=True, deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
@given(
    fraction=st.sampled_from((0.1, 0.5, 1.0)),
    locality=st.sampled_from((0.0, 0.5, 0.9)),
    chi=st.sampled_from((1, 3, 8)),
    mode=st.sampled_from((Mode.AGGRESSIVE, Mode.LAZY)),
    seed=st.integers(1, 50),
)
def test_any_true_lookahead_commits_the_golden(fraction, locality, chi, mode, seed):
    """Declare any lookahead up to PHOLD's real minimum delay: with the
    oracle armed, two shards commit exactly the sequential result."""
    end_time = 600.0
    build = _phold(seed, locality, lookahead=fraction * PHOLDParams.min_delay)
    per_object, states = _golden(build, end_time)
    config = SimulationConfig(
        backend="parallel", workers=2, end_time=end_time,
        oracle=InvariantOracle(),
        checkpoint=lambda _obj: StaticCheckpoint(chi),
        cancellation=lambda _obj: StaticCancellation(mode),
    )
    sim = ParallelSimulation.from_builder(build, config, timeout_s=60.0)
    stats = sim.run()
    assert not sim.violations
    assert sim.oracle_checks_by_kind["state_save"] > 0
    for name, state in states.items():
        assert stats.per_object[name].events_committed == per_object[name], name
        assert sim.final_states[name] == state, name


def test_a_live_lazy_entry_holds_the_commit_bound_after_an_epoch():
    """Resume re-derives the bounds.  A member whose policy has since
    locked aggressive in (or that migrated in) can still hold a live lazy
    entry, and commits must stay below it even with no peer left."""
    lp, _, ids = build_lp(mode=Mode.LAZY)
    cause = inject(lp, ids["a"], 10.0, ("fwd", "m", "b"))
    assert lp.execute_one()
    lp.deliver_event(cause.anti_message())  # parks a's note to b at 20
    for ctx in lp.members.values():
        ctx.mode = Mode.AGGRESSIVE
        ctx.cancel_policy = StaticCancellation(Mode.AGGRESSIVE)
    runtime = worker_mod._ShardRuntime.__new__(worker_mod._ShardRuntime)
    runtime.lp = lp
    runtime.shard_id = 0
    runtime.plan = types.SimpleNamespace(oid_to_shard={0: 0, 1: 0})
    runtime._clocks = None
    runtime._rings_in = {}
    runtime._committed_gvt = 0.0
    runtime._configure_bound()
    assert lp.safe_bound == float("inf")  # no peer
    assert lp.commit_bound == 20.0
    assert runtime._refresh  # and kept there before every event
