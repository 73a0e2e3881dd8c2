"""Tests for the sequential reference kernel."""

import pytest

from repro import SequentialSimulation
from repro.apps.pingpong import Player, build_pingpong
from repro.apps.phold import PHOLDParams, build_phold
from repro.kernel.errors import ConfigurationError, SchedulingError
from tests.helpers import flatten


class TestSequential:
    def test_runs_pingpong(self):
        seq = SequentialSimulation(flatten(build_pingpong(10)))
        seq.run()
        assert seq.events_executed == 10
        assert seq.objects[0].state.tokens_seen == 5

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SequentialSimulation([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            SequentialSimulation([Player("x", "x", 1), Player("x", "x", 1)])

    def test_run_once(self):
        seq = SequentialSimulation(flatten(build_pingpong(2)))
        seq.run()
        with pytest.raises(ConfigurationError):
            seq.run()

    def test_unknown_destination(self):
        seq = SequentialSimulation([Player("a", "ghost", 2, serve=True)])
        with pytest.raises(SchedulingError):
            seq.run()

    def test_end_time_drops_future_events(self):
        seq = SequentialSimulation(flatten(build_pingpong(100, delay=10.0)),
                                   end_time=35.0)
        seq.run()
        assert seq.events_executed == 3

    def test_trace_shape(self):
        seq = SequentialSimulation(flatten(build_pingpong(4)), record_trace=True)
        seq.run()
        trace = seq.sorted_trace()
        assert len(trace) == 4
        assert trace[0][1] == "pong"  # first receiver is the served player

    def test_trace_requires_flag(self):
        seq = SequentialSimulation(flatten(build_pingpong(2)))
        seq.run()
        with pytest.raises(ConfigurationError):
            seq.sorted_trace()

    def test_max_events_guard(self):
        # a traced golden run, as goldens are made: the guard still raises
        params = PHOLDParams(n_objects=4, n_lps=1, jobs_per_object=1)
        seq = SequentialSimulation(flatten(build_phold(params)),
                                   record_trace=True, max_events=100)
        with pytest.raises(SchedulingError, match="runaway"):
            seq.run()
        assert seq.events_executed == 101

    def test_events_stop_early_without_raising(self):
        params = PHOLDParams(n_objects=4, n_lps=1, jobs_per_object=1)
        seq = SequentialSimulation(flatten(build_phold(params)))
        executed = []
        for event in seq.events():
            executed.append(event)
            if len(executed) == 50:
                break
        assert seq.events_executed == 50
        assert [e.recv_time for e in executed] == sorted(
            e.recv_time for e in executed)

    def test_execution_time_accumulates(self):
        seq = SequentialSimulation(flatten(build_pingpong(10)))
        seq.run()
        assert seq.execution_time == pytest.approx(10 * seq.costs.event_cost)

    def test_events_execute_in_global_total_order(self):
        order = []

        class Probe(Player):
            def execute_process(self, payload):
                order.append((self.now, self.name))
                super().execute_process(payload)

        a = Probe("a", "b", 6, delay=10.0, serve=True)
        b = Probe("b", "a", 6, delay=15.0)
        SequentialSimulation([a, b]).run()
        assert order == sorted(order)
