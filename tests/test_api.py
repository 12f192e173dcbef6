"""Export consistency: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import pfcontrol as pfc

MODULES = ["pfcontrol"] + [
    f"pfcontrol.{info.name}"
    for info in pkgutil.iter_modules(pfc.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_all_has_no_duplicates():
    assert len(pfc.__all__) == len(set(pfc.__all__))
