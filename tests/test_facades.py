"""The lazy package façades keep the contract of the eager re-exports."""

from __future__ import annotations

import importlib

import pytest

from repro._lazy import lazy_exports

#: each façade and one submodule that ``from package import <it>`` must still return
FACADES = [
    ("repro", "core"),
    ("repro.runtime", "storage"),
    ("repro.analysis", "lockwitness"),
    ("repro.metrics", "histogram"),
]


@pytest.mark.parametrize("package, submodule", FACADES, ids=[p for p, _ in FACADES])
def test_facade_contract(package, submodule):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        home = getattr(value, "__module__", None)
        if home is not None:  # a class or a function: the object its defining module holds
            assert getattr(importlib.import_module(home), name) is value, name
        assert name in dir(pkg), name

    star: dict = {}
    exec(f"from {package} import *", star)
    assert {name: star[name] for name in pkg.__all__} == {name: getattr(pkg, name) for name in pkg.__all__}

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")

    bound: dict = {}
    exec(f"from {package} import {submodule}", bound)
    assert bound[submodule] is importlib.import_module(f"{package}.{submodule}")


def test_a_name_under_two_submodules_is_refused():
    with pytest.raises(ValueError, match="'Thing' listed under .a and .b"):
        lazy_exports("pkg", {".a": ("Thing",), ".b": ("Thing", "Other")})
