"""Tests for the SMMP application model."""

import pytest

from repro import SequentialSimulation
from repro.apps.smmp import (
    SMMPParams,
    build_smmp,
    total_requests,
    _request_token,
)
from repro.kernel.errors import ConfigurationError
from tests.helpers import flatten


class TestParams:
    def test_paper_configuration_has_100_objects(self):
        params = SMMPParams()
        assert params.n_objects == 100
        assert len(flatten(build_smmp(params))) == 100

    def test_lp_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            SMMPParams(n_processors=16, n_lps=3).validate()
        with pytest.raises(ConfigurationError):
            SMMPParams(n_banks=50, n_lps=4).validate()

    def test_hit_ratio_bounds(self):
        with pytest.raises(ConfigurationError):
            SMMPParams(hit_ratio=1.5).validate()

    def test_partition_shape(self):
        partition = build_smmp(SMMPParams())
        assert len(partition) == 4
        assert all(len(group) == 25 for group in partition)
        names = [obj.name for obj in partition[0]]
        # per-CPU pipelines are LP-local
        assert "src-0" in names and "cache-0" in names and "membus-0" in names
        assert "stat-0" in names

    def test_total_requests(self):
        assert total_requests(SMMPParams(requests_per_processor=10)) == 160


class TestTokens:
    def test_tokens_carry_creator_and_id(self):
        token = _request_token(SMMPParams(), 3, 17)
        assert token[0] == 3 and token[1] == 17

    def test_tokens_are_deterministic(self):
        params = SMMPParams()
        assert _request_token(params, 1, 2) == _request_token(params, 1, 2)


class TestSequentialBehaviour:
    @pytest.fixture(scope="class")
    def run(self):
        params = SMMPParams(requests_per_processor=50)
        seq = SequentialSimulation(flatten(build_smmp(params)))
        seq.run()
        return params, seq

    def test_all_requests_complete(self, run):
        params, seq = run
        for obj in seq.objects:
            if obj.name.startswith("src-"):
                assert obj.state.issued == params.requests_per_processor
                assert obj.state.completed == params.requests_per_processor

    def test_cache_hit_ratio_near_configured(self, run):
        params, seq = run
        hits = misses = 0
        for obj in seq.objects:
            if obj.name.startswith("cache-"):
                hits += obj.state.hits
                misses += obj.state.misses
        observed = hits / (hits + misses)
        assert abs(observed - params.hit_ratio) < 0.05

    def test_write_fraction_reaches_banks(self, run):
        params, seq = run
        writes = sum(o.state.writes_absorbed for o in seq.objects
                     if o.name.startswith("bank-"))
        expected = params.write_fraction * total_requests(params)
        assert abs(writes - expected) / expected < 0.2

    def test_stat_collectors_count_everything(self, run):
        params, seq = run
        done = sum(o.state.completions for o in seq.objects
                   if o.name.startswith("stat-"))
        assert done == total_requests(params)

    def test_banks_share_load(self, run):
        params, seq = run
        served = [o.state.served for o in seq.objects if o.name.startswith("bank-")]
        assert all(s > 0 for s in served)


class TestLookahead:
    """Each object declares the least delay it sends at, derived from the
    parameters its sends use, so no timing trips the kernel's check."""

    def test_declarations_follow_the_timing(self):
        params = SMMPParams(think_time=0.5, fill_time=3.0, cache_time=4.0,
                            bus_time=0.25, memory_time=7.0)
        declared = {
            obj.name.split("-")[0]: obj.lookahead
            for obj in flatten(build_smmp(params))
        }
        assert declared == {
            "src": 0.5, "cache": 3.0, "membus": 0.25, "bank": 7.0,
            "stat": float("inf"),  # it sends nothing
        }

    def test_short_delays_run(self):
        params = SMMPParams(requests_per_processor=5, bus_time=0.5,
                            fill_time=0.5, think_time=0.5)
        seq = SequentialSimulation(flatten(build_smmp(params)))
        seq.run()
        for obj in seq.objects:
            if obj.name.startswith("src-"):
                assert obj.state.completed == params.requests_per_processor
