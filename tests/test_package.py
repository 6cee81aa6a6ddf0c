"""The package's public API: the modules' `__all__` lists, republished by `nrlimit`."""

from __future__ import annotations

import importlib

import nrlimit as nr

MODULES = ("grid", "snapshots", "operators", "nonlinearity", "ground_state", "limit_lab")


def test_package_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"nrlimit.{name}") for name in MODULES]
    assert nr.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(nr.__all__)) == len(nr.__all__) == 46
    for module in modules:
        for name in module.__all__:
            assert getattr(nr, name) is getattr(module, name), name
