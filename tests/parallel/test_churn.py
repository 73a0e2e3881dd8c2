"""Differential tests for elastic churn (docs/parallel.md).

A run that migrates objects mid-flight, forks new workers, and retires
others must still commit exactly the sequential golden — same per-object
counts, same final states, zero oracle violations.  Everything here runs
under the directory-wide SIGALRM hang guard (conftest.py), so a stuck
elastic epoch fails the test instead of hanging the suite.
"""

import multiprocessing

import pytest

from repro import SimulationConfig, make_simulation
from repro.bench.cli import main as bench_main
from repro.kernel.errors import ConfigurationError
from repro.verify import Scenario, run_scenario, sequential_golden
from tests.helpers import PHOLD


def run_churn(script, gvt_period, *, base=PHOLD, workers=2):
    return run_scenario(base.with_(
        backend="parallel", workers=workers, script=script,
        gvt_period=gvt_period,
    ))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)

#: 2 -> 3 -> 1 workers with a migration burst in between: every elastic
#: epoch kind (scripted move, join, leave) in one run
FULL_TRAJECTORY = {
    "seed": 11,
    "steps": [
        {"at": 1, "kind": "join", "count": 1},
        {"at": 2, "kind": "migrate", "count": 2},
        {"at": 3, "kind": "leave", "count": 2},
    ],
}


@pytest.fixture(scope="module")
def phold_churn():
    # a short GVT period keeps the run fast; steps the fleet quiesces
    # past fire on the quiet fleet, so the full trajectory is
    # guaranteed regardless of how quickly the shm wire finishes
    return run_churn(FULL_TRAJECTORY, 1_000.0)


@needs_fork
class TestChurnDifferential:
    def test_full_trajectory_matches_golden(self, phold_churn):
        result = phold_churn
        assert result.ok, result.describe()
        assert result.committed == result.expected > 0
        assert result.digest_match  # per-object counts + final states
        assert result.mismatches == ()

    def test_oracle_armed_and_clean(self, phold_churn):
        assert phold_churn.oracle_checks > 0
        assert phold_churn.violations == ()

    def test_worker_timeline_records_the_churn(self, phold_churn):
        timeline = phold_churn.raw["worker_timeline"]
        assert timeline[0] == (0, 2)
        counts = [n for _at, n in timeline]
        assert 3 in counts     # the join took effect
        assert counts[-1] == 1  # both leavers retired
        # commit indices are non-decreasing
        ats = [at for at, _n in timeline]
        assert ats == sorted(ats)

    def test_migrations_happened_and_balanced(self, phold_churn):
        assert phold_churn.raw["migrations"] > 0
        assert "elastic:" in phold_churn.describe()

    def test_full_trajectory_on_the_fallback_wire(self, queue_wire):
        # the one place elastic epochs meet pickled batches on the queues
        result = run_churn(FULL_TRAJECTORY, 1_000.0)
        assert result.ok, result.describe()
        assert result.raw["wire"] == "queue"
        counts = [n for _at, n in result.raw["worker_timeline"]]
        assert counts[0] == 2 and 3 in counts and counts[-1] == 1

    def test_scripted_migrations_only(self):
        result = run_churn(
            {"seed": 3, "steps": [
                {"at": 1, "kind": "migrate", "count": 1},
                {"at": 2, "kind": "migrate", "count": 2},
            ]},
            5_000.0, base=Scenario(app="smmp"),
        )
        assert result.ok, result.describe()
        # no joins or leaves: the worker set never changes
        assert result.raw["worker_timeline"] == ((0, 2),)

    def test_steps_past_quiescence_still_fire(self):
        # commit index 50 is never reached — the run quiesces in a
        # handful of rounds — so the leave fires on the quiet fleet
        # instead of being silently dropped (docs/parallel.md)
        result = run_churn(
            {"seed": 5, "steps": [{"at": 50, "kind": "leave", "count": 1}]},
            1_000.0,
        )
        assert result.ok, result.describe()
        assert result.raw["worker_timeline"][-1][1] == 1

    def test_impossible_steps_are_skipped_not_fatal(self):
        # migrating with one worker and leaving below one worker are
        # both impossible; the run must complete and match regardless
        result = run_churn(
            {"seed": 1, "steps": [
                {"at": 1, "kind": "migrate", "count": 1},
                {"at": 2, "kind": "leave", "count": 1},
            ]},
            5_000.0, workers=1,
        )
        assert result.ok, result.describe()
        assert result.raw["migrations"] == 0
        assert result.raw["worker_timeline"] == ((0, 1),)


@needs_fork
class TestDynamicPlacementBackend:
    def test_balancer_matches_golden(self):
        config = SimulationConfig(
            backend="parallel", workers=2, end_time=PHOLD.end_time,
            placement="dynamic", gvt_period=5_000.0,
        )
        sim = make_simulation(PHOLD.build_partition(), config)
        stats = sim.run()
        assert stats.committed_events == sequential_golden(PHOLD).committed
        # the modelled backend's PlacementController decides here too: one
        # (observed imbalance, moves) entry per consulted GVT commit
        history = sim.placement.history
        assert history and all(observed >= 0.0 for observed, _moves in history)
        assert sim.migrations_in == sum(len(moves) for _observed, moves in history)


class TestChurnValidation:
    @pytest.mark.parametrize("script", [
        "{bad", '{"seed":1,"steps":[{"at":1,"kind":"explode","count":1}]}',
    ])
    def test_bad_cli_churn_is_a_usage_error_not_a_divergence(self, script, capsys):
        # rejected before anything is forked: exit status 2, nothing run
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["parallel", "--app", "phold", "--script", script])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_churn_requires_parallel_backend(self):
        config = SimulationConfig(
            script={"seed": 0, "steps": [{"at": 1, "kind": "migrate",
                                          "count": 1}]}
        )
        with pytest.raises(
            ConfigurationError,
            match="backend 'modelled' does not run step kind 'migrate'",
        ):
            config.validate()

    @pytest.mark.parametrize("plan,detail", [
        ({"steps": "nope"}, "steps"),
        ({"seed": "x", "steps": []}, "seed"),
        ({"steps": [{"at": 0, "kind": "migrate", "count": 1}]}, "at"),
        ({"steps": [{"at": 1, "kind": "shuffle", "count": 1}]}, "kind"),
        ({"steps": [{"at": 1, "kind": "join", "count": 0}]}, "count"),
        ({"steps": [{"at": 1, "kind": "join", "count": 1,
                     "extra": 1}]}, "extra"),
    ])
    def test_malformed_plans_rejected(self, plan, detail):
        config = SimulationConfig(
            backend="parallel", workers=2, script=plan
        )
        with pytest.raises(ConfigurationError, match=detail):
            config.validate()
