"""Scenario spec: validation, canonical JSON, stable identity."""

import json

import pytest

from repro.kernel.config import DRIVERS, RUN_BY, SimulationConfig
from repro.kernel.errors import ConfigurationError
from repro.verify import SCHEMA_SCENARIO, Scenario
from repro.verify.scenario import APP_SPECS, AXES, BACKENDS, FIELD_BACKENDS


def test_default_scenario_validates():
    Scenario().validate()


@pytest.mark.parametrize("app", sorted(APP_SPECS))
def test_every_app_baseline_builds(app):
    scenario = Scenario(app=app)
    scenario.validate()
    partition = scenario.build_partition()
    assert partition and any(partition)


@pytest.mark.parametrize("variant", AXES[0].values)
def test_cancellation_variants_build_config(variant):
    config = Scenario(cancellation=variant).build_config()
    assert config.cancellation is not None


def test_json_round_trip_is_identity():
    scenario = Scenario(
        app="smmp",
        app_params={"n_lps": 4, "n_banks": 8},
        cancellation="ps32",
        checkpoint="dynamic",
        aggregation="saaw",
        aggregation_window=400.0,
        meta_control="on",
        gvt_algorithm="mattern",
        time_window="adaptive",
        lp_speed_factors={"1": 2.0},
        faults={"seed": 3, "rates": {"drop": 0.05}},
        seed=42,
    )
    again = Scenario.from_json(scenario.to_json())
    assert again == scenario
    assert again.to_json() == scenario.to_json()


def test_json_is_canonical_and_schema_tagged():
    doc = json.loads(Scenario().to_json())
    assert doc["schema"] == SCHEMA_SCENARIO
    assert list(doc) == sorted(doc)


def test_scenario_id_ignores_seed_but_not_knobs():
    base = Scenario()
    assert base.scenario_id() == base.with_(seed=99).scenario_id()
    assert base.scenario_id() != base.with_(cancellation="lazy").scenario_id()


def test_a_stored_wire_pin_is_refused_as_an_unknown_field():
    with pytest.raises(ConfigurationError, match="wire"):
        Scenario.from_dict({"schema": SCHEMA_SCENARIO, "wire": "shm"})


def test_a_stored_fastpath_pin_is_refused_as_an_unknown_field():
    with pytest.raises(ConfigurationError, match="fastpath"):
        Scenario.from_dict({"schema": SCHEMA_SCENARIO, "fastpath": "numpy"})


def test_simulation_config_has_no_fastpath_field():
    with pytest.raises(TypeError):
        SimulationConfig(fastpath="numpy")


def test_a_stored_snapshot_pin_is_refused_as_an_unknown_field():
    with pytest.raises(ConfigurationError, match="snapshot"):
        Scenario.from_dict({"schema": SCHEMA_SCENARIO, "snapshot": "pickle"})


def test_simulation_config_has_no_snapshot_field():
    with pytest.raises(TypeError):
        SimulationConfig(snapshot="copy")


@pytest.mark.parametrize(
    "changes",
    [
        {"app": "nope"},
        {"app_params": {"bogus_param": 3}},
        {"backend": "quantum"},
        {"workers": 0},
        {"cancellation": "eager"},
        {"checkpoint": 0},
        {"checkpoint": "adaptive"},
        {"aggregation": "dyma"},
        {"aggregation_window": 0.0},
        {"meta_control": "always"},
        {"gvt_algorithm": "samadi"},
        {"gvt_period": -1.0},
        {"time_window": "static"},
        {"lp_speed_factors": {"0": -1.0}},
        {"faults": {"seed": 1, "bogus": True}},
        # conservative ignores Time Warp knobs; non-defaults are an error
        {"backend": "conservative", "cancellation": "lazy"},
        {"backend": "conservative", "faults": {"seed": 1}},
        {"backend": "conservative", "workers": 2},
        # parallel restrictions (docs/parallel.md)
        {"backend": "parallel", "faults": {"seed": 1}},
        {"backend": "parallel", "time_window": "adaptive"},
        {"backend": "parallel", "gvt_algorithm": "mattern"},
        {"backend": "parallel", "lp_speed_factors": {"0": 2.0}},
        {"backend": "parallel", "meta_control": "on"},
        # a scenario cannot claim a fleet it does not run
        {"backend": "modelled", "workers": 2},
        # malformed LP ids and factors
        {"lp_speed_factors": {"-1": 2.0}},
        {"lp_speed_factors": {"x": 2.0}},
        {"lp_speed_factors": {"0": "fast"}},
        {"lp_speed_factors": {"0": None}},
    ],
)
def test_invalid_scenarios_rejected(changes):
    with pytest.raises(ConfigurationError):
        Scenario(**changes).validate()


def test_every_backend_refusal_names_field_backend_and_takers():
    off_default = {axis.field: axis.values[-1] for axis in AXES} | {
        "workers": 2, "script": {"seed": 1, "steps": []},
        "faults": {"seed": 1}, "lp_speed_factors": {"0": 2.0},
        "gvt_period": 1_000.0,
    }
    carried = set(RUN_BY) & set(Scenario.__dataclass_fields__)
    assert set(off_default) == set(FIELD_BACKENDS) | carried
    for name, value in off_default.items():
        takers = FIELD_BACKENDS.get(name) or RUN_BY[name]
        for backend in BACKENDS:
            scenario = Scenario(backend=backend, **{name: value})
            if backend in takers:
                scenario.validate()
                continue
            pattern = f"{backend!r}.*{name}.*" + ".*".join(
                d for d in DRIVERS if d in takers
            )
            with pytest.raises(ConfigurationError, match=pattern):
                scenario.validate()


def test_the_lattice_refuses_only_what_run_by_does_not():
    # what a backend runs is the config's to refuse: the lattice's own
    # table names none of RUN_BY's fields, and an axis over one of them
    # takes its backends from RUN_BY
    assert BACKENDS == DRIVERS
    assert not set(FIELD_BACKENDS) & set(RUN_BY)
    for axis in AXES:
        if axis.field in RUN_BY:
            assert axis.backends == RUN_BY[axis.field]


def test_from_dict_rejects_unknown_fields_and_schemas():
    with pytest.raises(ConfigurationError):
        Scenario.from_dict({"schema": "repro-verify-scenario-0"})
    with pytest.raises(ConfigurationError):
        Scenario.from_dict({"schema": SCHEMA_SCENARIO, "surprise": 1})


def test_fuzz_value_sets_are_closed_under_combination():
    """Any combination of per-param fuzz values must build (the fuzzer
    and shrinker pick values independently)."""
    import itertools

    for app, spec in APP_SPECS.items():
        names = sorted(spec.fuzz_values)
        structural = [
            n for n in names
            if n in ("n_objects", "n_lps", "n_processors", "n_banks",
                     "n_sources", "n_forks", "n_disks")
        ]
        for combo in itertools.product(
            *(spec.fuzz_values[n] for n in structural)
        ):
            params = dict(zip(structural, combo))
            Scenario(app=app, app_params=params).build_partition()
