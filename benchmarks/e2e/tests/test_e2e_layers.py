"""Every simulator module is accounted to exactly one named layer."""

from pathlib import Path

import repro
from trace import CATCH_ALL, LAYERS, MODULE_LAYERS, layer_of_file, layer_of_module

REPRO_ROOT = Path(repro.__file__).resolve().parent
#: the packages a run executes; the rest only contribute disabled hooks
ACCOUNTED_PACKAGES = (
    "kernel", "cluster", "comm", "core", "control", "gvt", "parallel",
    "partition", "apps", "stats",
)


def accounted_modules():
    for package in ACCOUNTED_PACKAGES:
        for path in sorted((REPRO_ROOT / package).rglob("*.py")):
            yield path, path.relative_to(REPRO_ROOT).with_suffix("").as_posix()


def test_every_accounted_module_has_a_named_layer():
    unplaced = [
        module for _, module in accounted_modules() if layer_of_module(module) is None
    ]
    assert not unplaced, (
        f"add {unplaced} to MODULE_LAYERS in benchmarks/e2e/trace.py: a module "
        "without a layer silently lands in the catch-all"
    )
    for path, module in accounted_modules():
        layer = layer_of_file(str(path))
        assert layer in LAYERS and layer != CATCH_ALL, (module, layer)


def test_the_table_only_names_real_layers_and_real_modules():
    assert set(MODULE_LAYERS.values()) <= set(LAYERS)
    for module in MODULE_LAYERS:
        target = REPRO_ROOT / module
        assert target.is_dir() or target.with_suffix(".py").is_file(), module
    assert len(set(LAYERS)) == len(LAYERS)


def test_everything_outside_the_simulator_is_the_catch_all():
    assert layer_of_file("~") == CATCH_ALL
    assert layer_of_file(__file__) == CATCH_ALL
    assert layer_of_file(str(REPRO_ROOT / "oracle" / "invariants.py")) == CATCH_ALL
