"""Lazy package exports (``repro/_lazy.py``, docs/architecture.md)."""

import importlib

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.apps",
    "repro.bench",
    "repro.control",
    "repro.core",
    "repro.faults",
    "repro.gvt",
    "repro.oracle",
    "repro.stats",
    "repro.trace",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_name_in_all_resolves(name):
    package = importlib.import_module(name)
    assert "__getattr__" in vars(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert vars(package)[export] is value  # cached after first access


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(
        AttributeError, match=rf"^module '{name}' has no attribute 'no_such_export'$"
    ):
        package.no_such_export
