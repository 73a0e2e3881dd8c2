"""Tests for profiling-based model partitioning.

Every test here runs as on a bare install: ``import networkx`` raises
(``sys.modules["networkx"] = None``), so no strategy may depend on it.
"""

import sys

import pytest

from repro import (
    NetworkModel,
    SequentialSimulation,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.apps.raid import RAIDParams, build_raid
from repro.apps.smmp import SMMPParams, build_smmp
from repro.kernel.errors import ConfigurationError
from repro.parallel import ParallelSimulation, backend
from repro.partition import (
    CommGraph,
    apply_assignment,
    greedy_growth,
    kernighan_lin,
    partition_quality,
    profile_model,
    round_robin,
)
from repro.partition.graph import PILOT_EVENTS_PER_OBJECT
from tests.helpers import flatten, sequential_trace


@pytest.fixture(autouse=True)
def networkx_blocked(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)


@pytest.fixture(scope="module")
def smmp_graph():
    params = SMMPParams(requests_per_processor=20)
    return params, profile_model(flatten(build_smmp(params)))


class TestCommGraph:
    def test_add_message_is_symmetric(self):
        g = CommGraph(objects=["a", "b"])
        g.add_message("a", "b", 3)
        g.add_message("b", "a", 2)
        assert g.edge_weight("a", "b") == 5
        assert g.edge_weight("b", "a") == 5

    def test_self_messages_ignored(self):
        g = CommGraph(objects=["a"])
        g.add_message("a", "a", 5)
        assert g.total_weight() == 0

    def test_cut_weight(self):
        g = CommGraph(objects=["a", "b", "c"])
        g.add_message("a", "b", 10)
        g.add_message("b", "c", 1)
        assert g.cut_weight({"a": 0, "b": 0, "c": 1}) == 1
        assert g.cut_weight({"a": 0, "b": 1, "c": 1}) == 10

    def test_neighbours(self):
        g = CommGraph(objects=["a", "b", "c"])
        g.add_message("a", "b", 2)
        g.add_message("c", "a", 7)
        assert g.neighbours("a") == {"b": 2, "c": 7}


class TestProfiling:
    def test_profile_counts_messages(self, smmp_graph):
        params, graph = smmp_graph
        assert len(graph.objects) == params.n_objects
        assert graph.total_weight() > 0
        # the pipeline edges must be heavy: src-0 <-> cache-0
        assert graph.edge_weight("src-0", "cache-0") > 0

    def test_loads_cover_all_objects(self, smmp_graph):
        _, graph = smmp_graph
        assert set(graph.loads) == set(graph.objects)

    def test_profile_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            profile_model([])


class TestStrategies:
    @pytest.mark.parametrize("strategy", [round_robin, greedy_growth,
                                          kernighan_lin])
    def test_assignment_is_complete_and_balanced(self, smmp_graph, strategy):
        _, graph = smmp_graph
        assignment = strategy(graph, 4)
        assert set(assignment) == set(graph.objects)
        assert set(assignment.values()) == {0, 1, 2, 3}
        quality = partition_quality(graph, assignment)
        assert quality["imbalance"] < 1.6

    def test_locality_strategies_beat_round_robin(self, smmp_graph):
        _, graph = smmp_graph
        rr = partition_quality(graph, round_robin(graph, 4))["cut_fraction"]
        greedy = partition_quality(graph, greedy_growth(graph, 4))["cut_fraction"]
        kl = partition_quality(graph, kernighan_lin(graph, 4))["cut_fraction"]
        assert greedy < rr / 2
        assert kl < rr / 2

    def test_too_many_lps_rejected(self):
        g = CommGraph(objects=["a", "b"])
        with pytest.raises(ConfigurationError):
            round_robin(g, 3)

    def test_single_lp(self, smmp_graph):
        _, graph = smmp_graph
        assignment = greedy_growth(graph, 1)
        assert set(assignment.values()) == {0}


class TestApplyAssignment:
    def test_materializes_partition(self):
        objects = flatten(build_pingpong(4))
        partition = apply_assignment(objects, {"ping": 0, "pong": 1}, 2)
        assert [o.name for o in partition[0]] == ["ping"]
        assert [o.name for o in partition[1]] == ["pong"]

    def test_missing_object_rejected(self):
        objects = flatten(build_pingpong(4))
        with pytest.raises(ConfigurationError, match="missing"):
            apply_assignment(objects, {"ping": 0}, 2)

    def test_empty_lp_rejected(self):
        objects = flatten(build_pingpong(4))
        with pytest.raises(ConfigurationError, match="empty"):
            apply_assignment(objects, {"ping": 0, "pong": 0}, 2)


class TestPholdGraph:
    """Partitioning the PHOLD communication graph (the parallel backend's
    benchmark workload: high locality gives the partitioner structure)."""

    PARAMS = PHOLDParams(n_objects=16, n_lps=2, jobs_per_object=3,
                         locality=0.9, seed=5)

    @pytest.fixture(scope="class")
    def phold_graph(self):
        return profile_model(flatten(build_phold(self.PARAMS)),
                             end_time=2_000)

    def test_partition_quality_invariants(self, phold_graph):
        for strategy in (round_robin, greedy_growth, kernighan_lin):
            quality = partition_quality(phold_graph, strategy(phold_graph, 2))
            assert 0.0 <= quality["cut_fraction"] <= 1.0
            assert quality["imbalance"] >= 1.0
            assert len(quality["lp_loads"]) == 2
            assert all(load > 0 for load in quality["lp_loads"])
            assert sum(quality["lp_loads"]) == pytest.approx(
                sum(phold_graph.loads.values())
            )

    def test_kl_exploits_locality(self, phold_graph):
        # locality=0.9 keeps ~90% of traffic inside contiguous blocks; KL
        # must recover that structure where round-robin scatters it
        rr = partition_quality(
            phold_graph, round_robin(phold_graph, 2))["cut_fraction"]
        kl = partition_quality(
            phold_graph, kernighan_lin(phold_graph, 2))["cut_fraction"]
        assert kl < rr / 3

    #: the 2-LP KL placement of this graph, as networkx 3.6's
    #: ``kernighan_lin_bisection`` computes it
    KL_LP0 = {f"phold-{i}" for i in range(8, 16)}

    def test_kernighan_lin_placement_is_pinned(self, phold_graph):
        assignment = kernighan_lin(phold_graph, 2)
        assert {name for name, lp in assignment.items() if lp == 0} == self.KL_LP0
        assert sorted(assignment) == sorted(phold_graph.objects)
        assert set(assignment.values()) == {0, 1}

    def test_from_builder_places_with_kl_on_a_bare_install(self, phold_graph):
        # a bare install must place with KL, not with a greedy fallback
        config = SimulationConfig(backend="parallel", workers=2, end_time=2_000)
        sim = ParallelSimulation.from_builder(
            lambda: build_phold(self.PARAMS), config, strategy="kernighan_lin"
        )
        assert sim.assignment == kernighan_lin(phold_graph, 2)
        assert sim.assignment != greedy_growth(phold_graph, 2)
        assert {n for n, lp in sim.assignment.items() if lp == 0} == self.KL_LP0

    def test_kernighan_lin_deterministic_under_fixed_seed(self, phold_graph):
        runs = [kernighan_lin(phold_graph, 2, seed=7) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_apply_assignment_round_trip(self, phold_graph):
        assignment = kernighan_lin(phold_graph, 2)
        objects = flatten(build_phold(self.PARAMS))
        partition = apply_assignment(objects, assignment, 2)
        # every object lands exactly once, in the shard the assignment says
        seen = {obj.name: lp for lp, group in enumerate(partition)
                for obj in group}
        assert seen == assignment
        assert sorted(seen) == sorted(o.name for o in objects)
        # within a shard, original (flat) relative order is preserved
        order = {obj.name: i for i, obj in enumerate(objects)}
        for group in partition:
            indices = [order[obj.name] for obj in group]
            assert indices == sorted(indices)


class TestPilot:
    """Placement profiles a pilot of ``PILOT_EVENTS_PER_OBJECT`` events per
    object, not the whole run."""

    @staticmethod
    def _phold(seed=5, locality=0.9):
        return PHOLDParams(n_objects=16, n_lps=2, jobs_per_object=3,
                           locality=locality, seed=seed)

    def test_endless_model_profiles_exactly_its_pilot(self):
        graph = profile_model(flatten(build_phold(self._phold())),
                              end_time=float("inf"))
        pilot = PILOT_EVENTS_PER_OBJECT * 16
        assert sum(graph.loads.values()) == pilot
        assert graph.total_weight() == pilot  # PHOLD never sends to itself

    def test_max_events_caps_the_profile(self):
        graph = profile_model(flatten(build_phold(self._phold())),
                              max_events=100)
        assert sum(graph.loads.values()) == 100

    def test_long_model_is_placed_without_running_it(self, monkeypatch):
        # 130 000 time units of this model are over 200k events: profiling
        # the whole run tripped the sequential kernel's runaway guard
        graphs = []

        def spy(*args, **kwargs):
            graphs.append(profile_model(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(backend, "profile_model", spy)
        config = SimulationConfig(backend="parallel", workers=2,
                                  end_time=130_000)
        sim = ParallelSimulation.from_builder(
            lambda: build_phold(self._phold()), config
        )
        lp0 = sum(1 for lp in sim.assignment.values() if lp == 0)
        assert (lp0, len(sim.assignment) - lp0) == (8, 8)
        [graph] = graphs
        assert graph.total_weight() == PILOT_EVENTS_PER_OBJECT * 16

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pilot_placement_cuts_like_the_full_horizon(self, seed):
        params = self._phold(seed=seed)
        pilot = profile_model(flatten(build_phold(params)), end_time=12_000)
        full = profile_model(flatten(build_phold(params)), end_time=12_000,
                             max_events=10**9)
        assert sum(full.loads.values()) > sum(pilot.loads.values())
        assert (full.cut_weight(kernighan_lin(pilot, 2))
                == full.cut_weight(kernighan_lin(full, 2)))

    def test_model_shorter_than_its_pilot_profiles_the_whole_run(self):
        # the A6 ablation's graph: 100 objects, 2 508 events < 12 800
        params = SMMPParams(requests_per_processor=30)
        seq = SequentialSimulation(flatten(build_smmp(params)),
                                   record_trace=True).run()
        expected = CommGraph(objects=[obj.name for obj in seq.objects])
        expected.loads = dict.fromkeys(expected.objects, 0)
        for _time, receiver, sender, _send_time, _payload in seq.trace:
            expected.add_message(sender, receiver)
            expected.loads[receiver] += 1
        assert seq.events_executed < PILOT_EVENTS_PER_OBJECT * len(seq.objects)
        assert profile_model(flatten(build_smmp(params))) == expected


class TestEndToEnd:
    def test_auto_partitioned_run_is_equivalent(self):
        params = RAIDParams(requests_per_source=20)
        expected = sequential_trace(lambda: build_raid(params))
        graph = profile_model(flatten(build_raid(params)))
        assignment = greedy_growth(graph, 4)
        partition = apply_assignment(flatten(build_raid(params)), assignment, 4)
        config = SimulationConfig(
            record_trace=True, lp_speed_factors={1: 1.2, 2: 1.4, 3: 1.6},
            network=NetworkModel(jitter=0.4),
        )
        sim = TimeWarpSimulation(partition, config)
        sim.run()
        assert sim.sorted_trace() == expected

    def test_better_cut_means_fewer_messages(self):
        params = SMMPParams(requests_per_processor=25)
        graph = profile_model(flatten(build_smmp(params)))
        results = {}
        for name, strategy in (("rr", round_robin), ("greedy", greedy_growth)):
            partition = apply_assignment(
                flatten(build_smmp(params)), strategy(graph, 4), 4
            )
            stats = TimeWarpSimulation(partition, SimulationConfig()).run()
            results[name] = stats
        assert (results["greedy"].physical_messages
                < results["rr"].physical_messages / 2)
        assert (results["greedy"].execution_time
                < results["rr"].execution_time)
