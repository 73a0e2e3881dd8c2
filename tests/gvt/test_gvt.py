"""GVT tests: omniscient exactness, Mattern safety and progress.

GVT safety is *the* correctness keystone of Time Warp memory management:
an unsafe estimate fossil-collects state that a later rollback needs.
The omniscient estimator is checked for exactness against hand-computed
bounds; Mattern's distributed algorithm is checked for safety (never
exceeds the true bound at commit time, validated by instrumenting the
commit path) and for liveness/equivalence at quiescence.
"""

from repro import FaultPlan, FaultRates, SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.gvt import mattern
from repro.gvt.manager import true_global_minimum
from repro.gvt.mattern import ColourAgent, GvtStart, MatternGVT, ShardReport, close_pass
from repro.trace import Tracer

INF = float("inf")
START = GvtStart(round=1, pass_no=1)


def _report(shard, *, local_min=INF, white_sent=0, white_received=0,
            red_min=INF, red_sent=0, active=False, total_sent=0):
    return ShardReport(
        shard=shard, round=START.round, pass_no=START.pass_no,
        local_min=local_min, white_sent=white_sent,
        white_received=white_received, red_min=red_min, red_sent=red_sent,
        active=active, total_sent=total_sent, total_received=0,
    )


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

    def test_report_is_the_agents_cut(self):
        agent = ColourAgent()
        agent.note_send(4.0)                   # white for round 1
        agent.note_receive(0)                  # white for round 1
        agent.enter_round(1)
        agent.note_send(6.0)                   # red
        agent.note_receive(1)                  # red
        report = agent.report(3, START, 2.0, True)
        assert (report.shard, report.round, report.pass_no) == (3, 1, 1)
        assert (report.white_sent, report.white_received) == (1, 1)
        assert (report.red_sent, report.red_min) == (1, 6.0)
        assert (report.total_sent, report.total_received) == (2, 2)
        assert report.local_min == 2.0 and report.active
        assert report.loads is None


class TestClosePass:
    """The one white-balance test both Mattern drivers decide passes by."""

    def test_unbalanced_whites_return_none(self):
        reports = [_report(0, white_sent=2), _report(1, white_received=1)]
        assert close_pass(START, reports) is None

    def test_gvt_is_min_of_local_and_red_minima(self):
        reports = [
            _report(0, local_min=10.0, red_min=7.0, red_sent=1),
            _report(1, local_min=8.0, white_sent=1),
            _report(2, local_min=9.0, white_received=1),
        ]
        result = close_pass(START, reports)
        assert result.gvt == 7.0  # a red send below every local minimum
        assert (result.round, result.passes) == (START.round, START.pass_no)
        reports[1] = _report(1, local_min=5.0, white_sent=1)
        assert close_pass(START, reports).gvt == 5.0

    def test_all_quiet_needs_every_report_idle_and_silent(self):
        assert close_pass(START, [_report(0), _report(1)]).all_quiet
        busy = close_pass(START, [_report(0), _report(1, active=True)])
        assert not busy.all_quiet and busy.any_active
        sending = close_pass(START, [_report(0, red_sent=1, red_min=4.0),
                                     _report(1)])
        assert not sending.all_quiet and not sending.any_active

    def test_retired_totals_balance_a_pass(self):
        # a retired worker's three sends were received as whites, and one
        # white it received came from shard 0
        reports = [_report(0, white_sent=1, white_received=2, total_sent=5),
                   _report(1, white_received=1, total_sent=2)]
        assert close_pass(START, reports) is None
        result = close_pass(START, reports, retired_sent=3, retired_received=1)
        assert result is not None
        assert (result.retired_sent, result.retired_received) == (3, 1)
        assert result.total_sent == 3 + 5 + 2
        assert close_pass(START, reports, retired_sent=3) is None

    def test_report_order_does_not_matter(self):
        reports = [
            _report(2, local_min=3.0, white_received=2),
            _report(0, local_min=6.0, white_sent=1, active=True),
            _report(1, local_min=4.0, white_sent=1, red_min=2.5, red_sent=1),
        ]
        forward = close_pass(START, reports)
        assert forward == close_pass(START, reversed(reports))
        assert [r.shard for r in forward.reports] == [0, 1, 2]
        assert forward.gvt == 2.5


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

    def test_passes_counted(self, monkeypatch):
        """Every pass is decided on one report per LP, all from that pass
        (checked by wrapping the star's pass decision)."""
        decided = []

        def close(start, reports, *retired):
            reports = tuple(reports)
            decided.append((start, reports))
            return close_pass(start, reports, *retired)

        monkeypatch.setattr(mattern, "close_pass", close)
        sim, _ = self._run(lambda: build_pingpong(300))
        gvt = sim.executive.gvt_algorithm
        for start, reports in decided:
            assert sorted(r.shard for r in reports) == list(range(len(sim.lps)))
            assert {(r.round, r.pass_no) for r in reports} == {
                (start.round, start.pass_no)
            }
        assert gvt.passes == len(decided)
        assert gvt.passes >= gvt.rounds_completed >= 1

    def test_colours_count_logical_messages_not_copies(self):
        """Over a wire that drops and duplicates (retransmission on), each
        logical DATA message is coloured once at send and counted once at
        receive, so the agents' totals equal the messages the LPs took in."""
        config = SimulationConfig(
            gvt_algorithm="mattern", gvt_period=2_000.0, end_time=400.0,
            faults=FaultPlan(seed=3, rates=FaultRates(drop=0.2, duplicate=0.3)),
        )
        params = PHOLDParams(n_objects=6, n_lps=3, jobs_per_object=2, seed=7)
        sim = TimeWarpSimulation(build_phold(params), config)
        sim.run()
        counters = sim.executive.network.counters
        assert counters.drops and counters.duplicates and counters.retransmissions
        sent = sum(lp.agent.total_sent for lp in sim.lps)
        received = sum(lp.agent.total_received for lp in sim.lps)
        messages = sum(lp.stats.physical_messages_received for lp in sim.lps)
        assert sent == received == messages > 0
        assert sim.executive.gvt_algorithm.rounds_completed >= 1
