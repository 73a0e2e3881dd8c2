"""MetaController: transfer functions, cadence, records, determinism."""

from types import SimpleNamespace

import pytest

from repro import (
    MetaController,
    NetworkModel,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.smmp import SMMPParams, build_smmp
from repro.control.meta import GvtPeriodController
from repro.kernel.errors import ConfigurationError
from repro.trace import Tracer, read_trace, validate_record


class TestGvtPeriodTransfer:
    def test_high_backlog_shrinks(self):
        ctl = GvtPeriodController()
        assert ctl.control(600.0, 10_000.0) == 5_000.0
        assert ctl.last_verdict == "backlog_high"

    def test_low_backlog_grows(self):
        ctl = GvtPeriodController()
        assert ctl.control(10.0, 10_000.0) == 15_000.0
        assert ctl.last_verdict == "backlog_low"

    def test_dead_zone_holds(self):
        ctl = GvtPeriodController()
        assert ctl.control(100.0, 10_000.0) == 10_000.0
        assert ctl.last_verdict == "dead_zone"

    def test_clamped_to_safe_range(self):
        ctl = GvtPeriodController()
        assert ctl.control(600.0, 1_500.0) == 1_000.0
        assert ctl.control(10.0, 900_000.0) == 1_000_000.0

    def test_verdict_names_every_invocation(self):
        ctl = GvtPeriodController()
        verdicts = []
        for backlog in (100.0, 600.0, 10.0):
            ctl.control(backlog, 10_000.0)
            verdicts.append(ctl.last_verdict)
        assert verdicts == ["dead_zone", "backlog_high", "backlog_low"]


class TestMetaControllerWiring:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigurationError, match="meta-managed"):
            MetaController(knobs=("gvt_period", "partition"))

    def test_attach_installs_the_loop_on_the_executive(self):
        meta = MetaController()
        executive = SimpleNamespace()
        meta.attach(executive)
        assert executive.meta is meta

    def test_parallel_backend_rejects_meta_control(self):
        config = SimulationConfig(
            backend="parallel", workers=2,
            meta_control=lambda: MetaController(),
        )
        with pytest.raises(ConfigurationError, match="meta_control"):
            config.validate()


def traced_meta_run(path, *, gvt_period=2_000.0):
    """A small SMMP run with the meta loop live, traced to ``path``."""
    with Tracer.to_path(path) as tracer:
        config = SimulationConfig(
            meta_control=lambda: MetaController(),
            lp_speed_factors={1: 1.2, 2: 1.4, 3: 1.7},
            network=NetworkModel(jitter=0.4, seed=0),
            gvt_period=gvt_period,
            tracer=tracer,
        )
        sim = TimeWarpSimulation(
            build_smmp(SMMPParams(requests_per_processor=40)), config
        )
        stats = sim.run()
    return sim, stats


@pytest.fixture(scope="module")
def meta_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("meta") / "run.jsonl"
    sim, _stats = traced_meta_run(path)
    return sim, list(read_trace(path))


class TestMetaRecords:
    def test_records_are_emitted_and_schema_valid(self, meta_trace):
        _sim, records = meta_trace
        ctrl = [r for r in records if r["type"] in ("ctrl.gvt", "ctrl.placement")]
        assert ctrl
        for record in ctrl:
            assert validate_record(record) == []

    def test_cadence_matches_declared_period(self, meta_trace):
        # the meta loop runs at advancing GVT rounds; each knob fires
        # every `period` of them — the record cadence IS the declared P
        sim, records = meta_trace
        advancing = sum(
            1 for r in records if r["type"] == "gvt.round" and r["advanced"]
        )
        meta = sim.meta
        n_gvt = sum(1 for r in records if r["type"] == "ctrl.gvt")
        n_place = sum(1 for r in records if r["type"] == "ctrl.placement")
        assert n_gvt == advancing // meta.gvt_period.period
        assert n_place == advancing // meta.placement.period
        assert n_gvt > 0

    def test_noop_invocations_still_emit(self, meta_trace):
        # dead-zone verdicts must appear as records with old == new
        _sim, records = meta_trace
        for record in records:
            if record["type"] == "ctrl.gvt" and record["verdict"] == "dead_zone":
                assert record["old"] == record["new"]
            if record["type"] == "ctrl.placement" and record["verdict"] == "hold":
                assert record["old"] == record["new"] == ""

    def test_records_chain_the_period(self, meta_trace):
        # each ctrl.gvt record starts from the period the previous one
        # set, and the last one set the period the executive ends with
        sim, records = meta_trace
        ctrl = [r for r in records if r["type"] == "ctrl.gvt"]
        assert ctrl[0]["old"] == sim.config.gvt_period
        for before, after in zip(ctrl, ctrl[1:]):
            assert after["old"] == before["new"]
        assert ctrl[-1]["new"] == sim.executive.gvt_period


class TestMetaDeterminism:
    def test_byte_identical_traces_with_meta_enabled(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        traced_meta_run(a)
        traced_meta_run(b)
        bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
        assert len(bytes_a) > 0
        assert bytes_a == bytes_b

    def test_default_config_has_no_meta(self, tmp_path):
        # meta off (the default) leaves the trace byte-identical to the
        # pre-registry kernel: no ctrl.gvt/ctrl.placement, no extra cost
        path = tmp_path / "plain.jsonl"
        with Tracer.to_path(path) as tracer:
            config = SimulationConfig(
                network=NetworkModel(jitter=0.4, seed=0),
                gvt_period=2_000.0,
                tracer=tracer,
            )
            sim = TimeWarpSimulation(
                build_smmp(SMMPParams(requests_per_processor=40)), config
            )
            sim.run()
        assert sim.meta is None
        types = {r["type"] for r in read_trace(path)}
        assert "ctrl.gvt" not in types
        assert "ctrl.placement" not in types
