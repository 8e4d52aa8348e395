"""Lazy package façades: a package's public names, imported on first use.

A façade ``__init__`` names the submodule that defines each of its public
names and takes its module ``__getattr__``/``__dir__`` from
:func:`lazy_exports`.  A submodule is imported the first time one of its
names is read — attribute access, ``from pkg import name``, ``import *`` —
so importing one submodule of a package (``repro.runtime.server``) does
not import its siblings (the client), and a cache server process loads
neither numpy nor the simulator it never uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]) -> tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for ``package``, whose public names live in
    the submodules ``table`` maps to them (``{".client": ("ReadError", ...)}``).

    A name listed under two submodules is refused with :class:`ValueError`.
    A resolved name is bound on the package, so it is imported once.
    """
    home: dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if home.setdefault(name, module) != module:
                raise ValueError(f"{package}: {name!r} listed under {home[name]} and {module}")

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | home.keys())

    return __getattr__, __dir__
