"""Module re-exports resolved on first use (PEP 562).

A module describes what it re-exports as a table that mirrors the import
statements it replaces: ``{"executor": ("Job", ...)}`` for ``from
.executor import Job, ...`` and ``{".": ("store", ...)}`` for ``from .
import store, ...``.  As in those statements, the keys are relative to
the module's package: a package ``__init__`` names its submodules, a plain
module its siblings.  :func:`lazy_exports` turns the table into the
module's ``__all__``, ``__getattr__`` and ``__dir__``, so importing the
module runs none of those other modules: each name is imported on its
first access and cached in the module namespace, where later lookups find
it directly.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping


def lazy_exports(
    module: str, namespace: dict, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` of *module* for *table*.

    *namespace* is the module's ``globals()``; resolved names are stored
    there.
    """
    package = namespace["__package__"]
    owners = {name: submodule for submodule, names in table.items()
              for name in names}

    def __getattr__(name: str) -> object:
        submodule = owners.get(name)
        if submodule is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        if submodule == ".":
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
