"""The declarative knob registry: specs, checks, config assembly."""

import pytest

from repro import (
    DynamicCancellation,
    DynamicCheckpoint,
    Mode,
    SAAWPolicy,
    SimulationConfig,
    StaticCheckpoint,
)
from repro.control import (
    KNOBS,
    META_KNOBS,
    MetaController,
    dynamic_config_kwargs,
    get_knob,
    static_config_kwargs,
)
from repro.control.registry import register
from repro.kernel.errors import ConfigurationError

EXPECTED_KNOBS = (
    "checkpoint",
    "cancellation",
    "aggregation",
    "time_window",
    "gvt_period",
    "placement",
)


class TestRegistry:
    def test_every_knob_is_registered_in_order(self):
        assert tuple(KNOBS) == EXPECTED_KNOBS

    def test_get_knob_unknown_name(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            get_knob("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            register(KNOBS["checkpoint"])

    def test_meta_managed_split_matches_meta_knobs(self):
        meta = tuple(n for n, s in KNOBS.items() if s.meta_managed)
        assert meta == META_KNOBS


class TestSpecIntegrity:
    @pytest.mark.parametrize("name", EXPECTED_KNOBS)
    def test_control_spec_tuple(self, name):
        # the <O, I, S, T, P> tuple is declared once, as KnobSpec prose
        spec = KNOBS[name]
        for leg in (spec.sampled_output, spec.parameter, spec.initial,
                    spec.transfer, spec.period):
            assert isinstance(leg, str) and leg

    @pytest.mark.parametrize("name", EXPECTED_KNOBS)
    def test_static_values_pass_their_own_check(self, name):
        spec = KNOBS[name]
        assert spec.static_values
        for _label, value in spec.static_values:
            spec.validate_value(value)

    @pytest.mark.parametrize("name", EXPECTED_KNOBS)
    def test_config_field_exists(self, name):
        assert hasattr(SimulationConfig(), KNOBS[name].config_field)

    @pytest.mark.parametrize(
        ("name", "bad"),
        [
            ("checkpoint", 0),
            ("checkpoint", 10_000),
            ("cancellation", "lazy"),  # must be a kernel Mode, not a str
            ("aggregation", -5.0),
            ("time_window", 0.0),
            ("gvt_period", -1.0),
            ("placement", "sticky"),
        ],
    )
    def test_out_of_domain_values_raise(self, name, bad):
        with pytest.raises(ConfigurationError):
            KNOBS[name].validate_value(bad)


class TestStaticConfig:
    def test_checkpoint_static_factory(self):
        factory = KNOBS["checkpoint"].static_config_value(8)
        policy = factory(None)
        assert isinstance(policy, StaticCheckpoint)

    def test_cancellation_static_is_mode(self):
        for _label, value in KNOBS["cancellation"].static_values:
            assert isinstance(value, Mode)

    def test_time_window_unbounded_maps_to_no_kwargs(self):
        assert static_config_kwargs("time_window", None) == {}

    def test_gvt_period_static_kwargs(self):
        assert static_config_kwargs("gvt_period", 5_000.0) == {
            "gvt_period": 5_000.0
        }

    def test_invalid_static_value_raises(self):
        with pytest.raises(ConfigurationError):
            static_config_kwargs("checkpoint", 0)


class TestDynamicConfig:
    def test_all_knobs_dynamic(self):
        kwargs = dynamic_config_kwargs()
        assert set(kwargs) == {
            "checkpoint", "cancellation", "aggregation", "time_window",
            "meta_control",
        }
        assert isinstance(kwargs["checkpoint"](None), DynamicCheckpoint)
        assert isinstance(kwargs["cancellation"](None), DynamicCancellation)
        assert isinstance(kwargs["aggregation"](None), SAAWPolicy)
        meta = kwargs["meta_control"]()
        assert isinstance(meta, MetaController)
        assert meta.knobs == META_KNOBS
        # the assembled kwargs build a valid config
        SimulationConfig(**kwargs).validate()

    def test_single_meta_knob(self):
        kwargs = dynamic_config_kwargs(("gvt_period",))
        assert set(kwargs) == {"meta_control"}
        assert kwargs["meta_control"]().knobs == ("gvt_period",)

    def test_single_kernel_knob(self):
        kwargs = dynamic_config_kwargs(("checkpoint",))
        assert set(kwargs) == {"checkpoint"}

    def test_meta_managed_knob_has_no_direct_dynamic_value(self):
        with pytest.raises(ConfigurationError, match="MetaController"):
            KNOBS["gvt_period"].dynamic_config_value()
