"""Tests for the pluggable snapshot strategies and their config wiring."""

from dataclasses import dataclass, field

import pytest

from repro.apps.pingpong import build_pingpong
from repro.kernel.config import SimulationConfig
from repro.kernel.errors import ConfigurationError
from repro.kernel.kernel import TimeWarpSimulation
from repro.kernel.state import (
    COPY_SNAPSHOT,
    SNAPSHOT_STRATEGIES,
    CopySnapshot,
    DeepcopySnapshot,
    PickleSnapshot,
    RecordState,
    resolve_snapshot_strategy,
)


@dataclass
class _State(RecordState):
    counter: int = 0
    table: list = field(default_factory=list)
    index: dict = field(default_factory=dict)


def _sample() -> _State:
    return _State(counter=3, table=[1, 2, [3, 4]], index={"a": 1.0, "b": 2.0})


class TestStrategies:
    @pytest.mark.parametrize("name", sorted(SNAPSHOT_STRATEGIES))
    def test_roundtrip_equal_and_independent(self, name):
        strategy = resolve_snapshot_strategy(name)
        original = _sample()
        snap = strategy.snapshot(original)
        assert snap == original
        assert snap is not original
        snap.table.append(99)
        snap.index["c"] = 3.0
        assert snap != original  # the snapshot is a deep, private copy

    def test_names_match_registry(self):
        for name, cls in SNAPSHOT_STRATEGIES.items():
            assert cls.name == name

    def test_registry_contents(self):
        assert set(SNAPSHOT_STRATEGIES) == {"copy", "pickle", "deepcopy", "array"}
        assert isinstance(COPY_SNAPSHOT, CopySnapshot)

    def test_array_strategy_block_copies_ndarrays(self):
        numpy = pytest.importorskip("numpy")

        @dataclass
        class _SoA(RecordState):
            values: object = None
            blocks: list = field(default_factory=list)
            scalar: int = 0

        original = _SoA(
            values=numpy.arange(16, dtype="<f8"),
            blocks=[numpy.zeros(4, dtype="<u4"), numpy.ones(4, dtype="<u4")],
            scalar=7,
        )
        snap = resolve_snapshot_strategy("array").snapshot(original)
        assert snap is not original
        assert numpy.array_equal(snap.values, original.values)
        snap.values[0] = 99.0
        snap.blocks[0][0] = 42
        assert original.values[0] == 0.0  # deep, private copies
        assert original.blocks[0][0] == 0

    @pytest.mark.parametrize("name", ["copy", "array"])
    def test_ndarray_field_is_copied_and_sized(self, name):
        # state.py finds ndarray in sys.modules once numpy is loaded
        numpy = pytest.importorskip("numpy")

        @dataclass
        class _Arr(RecordState):
            values: object = None
            scalar: int = 0

        original = _Arr(values=numpy.arange(8, dtype="<i8"), scalar=3)
        assert original.size_bytes() == 8 + original.values.nbytes + 8
        snap = resolve_snapshot_strategy(name).snapshot(original)
        assert type(snap.values) is numpy.ndarray
        assert snap.values is not original.values
        snap.values[0] = 99
        assert original.values[0] == 0


class TestResolve:
    def test_resolves_names(self):
        assert isinstance(resolve_snapshot_strategy("pickle"), PickleSnapshot)
        assert isinstance(resolve_snapshot_strategy("deepcopy"), DeepcopySnapshot)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="deepcopy"):
            resolve_snapshot_strategy("zstd")

    def test_instances_pass_through(self):
        strategy = PickleSnapshot()
        assert resolve_snapshot_strategy(strategy) is strategy

    def test_non_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="snapshot"):
            resolve_snapshot_strategy(object())


class TestConfigWiring:
    def test_default_is_copy(self):
        config = SimulationConfig(end_time=100.0)
        config.validate()
        assert config.snapshot == "copy"

    def test_validate_rejects_bad_spec(self):
        config = SimulationConfig(end_time=100.0, snapshot="nope")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_kernel_applies_strategy_to_every_lp(self):
        sim = TimeWarpSimulation(
            build_pingpong(10),
            SimulationConfig(end_time=500.0, snapshot="pickle"),
        )
        for lp in sim.lps:
            assert lp.snapshot_strategy.name == "pickle"

    @pytest.mark.parametrize("name", sorted(SNAPSHOT_STRATEGIES))
    def test_run_identical_under_every_strategy(self, name):
        """Snapshots are behaviour-neutral: the committed history must not
        depend on how the kernel copies state."""
        stats = TimeWarpSimulation(
            build_pingpong(30),
            SimulationConfig(end_time=10_000.0, snapshot=name),
        ).run()
        assert stats.committed_events == 30
