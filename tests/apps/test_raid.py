"""Tests for the RAID application model."""

import pytest

from repro import SequentialSimulation
from repro.apps.raid import RAIDParams, build_raid, make_request, total_requests
from repro.kernel.errors import ConfigurationError
from tests.helpers import flatten


class TestParams:
    def test_paper_configuration(self):
        params = RAIDParams()
        assert params.n_sources == 20
        assert params.n_forks == 4
        assert params.n_disks == 8
        assert params.n_objects == 32

    def test_partition_is_5_1_2_per_lp(self):
        partition = build_raid(RAIDParams())
        assert len(partition) == 4
        for group in partition:
            names = [obj.name for obj in group]
            assert sum(n.startswith("rsrc") for n in names) == 5
            assert sum(n.startswith("fork") for n in names) == 1
            assert sum(n.startswith("disk") for n in names) == 2

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            RAIDParams(n_sources=21).validate()
        with pytest.raises(ConfigurationError):
            RAIDParams(n_disks=6, n_lps=4).validate()

    def test_sources_use_their_lp_local_fork(self):
        partition = build_raid(RAIDParams())
        for lp, group in enumerate(partition):
            fork_names = {o.name for o in group if o.name.startswith("fork")}
            for obj in group:
                if obj.name.startswith("rsrc"):
                    assert f"fork-{obj.fork}" in fork_names


class TestRequestTokens:
    def test_geometry_fields_in_bounds(self):
        params = RAIDParams()
        for i in range(100):
            (src, rid, stripe, cyl, track, sector, n_sectors,
             is_write, parity) = make_request(params, i % 20, i)
            assert 0 <= cyl < params.cylinders
            assert 0 <= track < params.tracks_per_cylinder
            assert 0 <= sector < params.sectors_per_track
            assert 1 <= n_sectors <= params.max_sectors_per_request
            assert 0 <= parity < params.n_disks
            assert isinstance(is_write, bool)

    def test_deterministic(self):
        params = RAIDParams()
        assert make_request(params, 3, 7) == make_request(params, 3, 7)

    def test_write_fraction(self):
        params = RAIDParams()
        writes = sum(make_request(params, s, r)[7]
                     for s in range(20) for r in range(100))
        assert abs(writes / 2000 - params.write_fraction) < 0.05


class TestSequentialBehaviour:
    @pytest.fixture(scope="class")
    def run(self):
        params = RAIDParams(requests_per_source=40)
        seq = SequentialSimulation(flatten(build_raid(params)))
        seq.run()
        return params, seq

    def test_all_requests_complete(self, run):
        params, seq = run
        for obj in seq.objects:
            if obj.name.startswith("rsrc-"):
                assert obj.state.completed == params.requests_per_source

    def test_forks_dispatch_everything(self, run):
        params, seq = run
        dispatched = sum(o.state.dispatched for o in seq.objects
                         if o.name.startswith("fork-"))
        assert dispatched == total_requests(params)

    def test_disks_serve_data_and_parity(self, run):
        params, seq = run
        served = sum(o.state.served for o in seq.objects
                     if o.name.startswith("disk-"))
        # every request hits one disk; writes also hit a parity disk
        assert served > total_requests(params)
        for obj in seq.objects:
            if obj.name.startswith("disk-"):
                assert obj.state.served > 0

    def test_zone_histogram_populated(self, run):
        _, seq = run
        disk = next(o for o in seq.objects if o.name == "disk-0")
        assert sum(disk.state.zone_histogram) == disk.state.served


class TestLookahead:
    """Each object declares the least delay it sends at, derived from the
    parameters its sends use, so no timing trips the kernel's check."""

    def test_declarations_follow_the_timing(self):
        params = RAIDParams(think_time=4.0, fork_time=6.0, seek_base=3.0)
        declared = {
            obj.name.split("-")[0]: obj.lookahead
            for obj in flatten(build_raid(params))
        }
        assert declared == {"rsrc": 4.0, "fork": 6.0, "disk": 3.0}

    @pytest.mark.parametrize("timing", [
        {"think_time": 4.0},
        {"seek_base": 2.0, "fork_time": 30.0},
    ])
    def test_short_delays_run(self, timing):
        params = RAIDParams(requests_per_source=5, **timing)
        seq = SequentialSimulation(flatten(build_raid(params)))
        seq.run()
        for obj in seq.objects:
            if obj.name.startswith("rsrc-"):
                assert obj.state.completed == params.requests_per_source
