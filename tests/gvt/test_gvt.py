"""GVT tests: omniscient exactness, Mattern safety and progress.

GVT safety is *the* correctness keystone of Time Warp memory management:
an unsafe estimate fossil-collects state that a later rollback needs.
The omniscient estimator is checked for exactness against hand-computed
bounds; Mattern's distributed algorithm is checked for safety (never
exceeds the true bound at commit time, validated by instrumenting the
commit path) and for liveness/equivalence at quiescence.
"""

from repro import SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.gvt.manager import true_global_minimum
from repro.gvt.mattern import ColourAgent, MatternGVT
from repro.trace import Tracer


class TestTrueGlobalMinimum:
    def test_matches_initial_events(self):
        sim = TimeWarpSimulation(build_pingpong(10, delay=7.0))
        sim.executive.start()
        # Only the serve (recv_time = 7.0) exists before any execution.
        assert true_global_minimum(sim.executive) == 7.0

    def test_infinite_when_empty(self):
        sim = TimeWarpSimulation(build_pingpong(0))
        sim.executive.start()
        sim.executive.run()
        assert true_global_minimum(sim.executive) == float("inf")


class TestOmniscient:
    def test_final_gvt_reaches_horizon(self):
        config = SimulationConfig(gvt_period=5_000.0)
        sim = TimeWarpSimulation(build_pingpong(50), config)
        stats = sim.run()
        assert stats.final_gvt > 0
        assert stats.gvt_rounds > 0

    def test_estimates_are_monotone(self):
        tracer = Tracer.in_memory()
        config = SimulationConfig(gvt_period=2_000.0, tracer=tracer)
        sim = TimeWarpSimulation(build_pingpong(200), config)
        sim.run()
        history = [r["gvt"] for r in tracer.select("gvt.round")
                   if r["advanced"]]
        assert history == sorted(history)
        assert len(history) >= 2

    def test_fossil_collection_frees_history(self):
        config = SimulationConfig(gvt_period=2_000.0)
        sim = TimeWarpSimulation(build_pingpong(400), config)
        sim.run()
        for lp in sim.lps:
            for ctx in lp.members.values():
                # history must have been pruned well below the run length
                assert len(ctx.sq.entries) < 400
                assert len(ctx.iq.processed) < 400


class TestMatternAgent:
    def test_colouring_by_round(self):
        agent = ColourAgent()
        assert agent.note_send(5.0) == 0       # stamped round 0
        agent.enter_round(1)
        assert agent.white_sent() == 1         # pre-round send is white
        assert agent.note_send(9.0) == 1       # new sends are red
        assert agent.white_sent() == 1

    def test_receive_counting_by_stamp(self):
        agent = ColourAgent()
        agent.enter_round(1)
        agent.note_receive(0)  # white for round 1
        agent.note_receive(1)  # red for round 1
        assert agent.white_received() == 1

    def test_red_min_resets_per_round(self):
        agent = ColourAgent()
        agent.note_send(5.0)
        agent.enter_round(1)
        assert agent.red_min == float("inf")
        agent.note_send(9.0)
        assert agent.red_min == 9.0

    def test_entering_same_round_twice_is_idempotent(self):
        agent = ColourAgent()
        agent.enter_round(1)
        agent.note_send(3.0)
        agent.enter_round(1)
        assert agent.red_min == 3.0


class TestMatternEndToEnd:
    def _run(self, build, **kwargs):
        config = SimulationConfig(
            gvt_algorithm="mattern", gvt_period=3_000.0, record_trace=True, **kwargs
        )
        sim = TimeWarpSimulation(build(), config)
        stats = sim.run()
        return sim, stats

    def test_rounds_complete_and_commit(self):
        sim, stats = self._run(lambda: build_pingpong(300))
        gvt = sim.executive.gvt_algorithm
        assert isinstance(gvt, MatternGVT)
        assert gvt.rounds_completed >= 1
        assert stats.final_gvt > 0

    def test_estimates_are_safe_lower_bounds(self):
        """Every committed Mattern estimate must be <= the true bound at
        the moment of commit (checked by wrapping the commit path)."""
        config = SimulationConfig(gvt_algorithm="mattern", gvt_period=2_000.0)
        params = PHOLDParams(n_objects=8, n_lps=4, jobs_per_object=2)
        sim = TimeWarpSimulation(build_phold(params), config)
        sim.config.end_time = 800.0
        for lp in sim.lps:
            lp.end_time = 800.0
        gvt = sim.executive.gvt_algorithm
        original = gvt._commit
        checked = []

        def commit(estimate):
            checked.append((estimate, true_global_minimum(sim.executive)))
            original(estimate)

        gvt._commit = commit
        sim.run()
        assert checked, "no GVT rounds completed"
        for estimate, truth in checked:
            assert estimate <= truth + 1e-9

    def test_mattern_matches_omniscient_at_quiescence(self):
        sim_m, stats_m = self._run(lambda: build_pingpong(100))
        config = SimulationConfig(gvt_period=3_000.0, record_trace=True)
        sim_o = TimeWarpSimulation(build_pingpong(100), config)
        stats_o = sim_o.run()
        assert stats_m.committed_events == stats_o.committed_events
        assert sim_m.sorted_trace() == sim_o.sorted_trace()

    def test_token_passes_counted(self):
        sim, _ = self._run(lambda: build_pingpong(300))
        gvt = sim.executive.gvt_algorithm
        assert gvt.token_passes >= gvt.rounds_completed * 2
