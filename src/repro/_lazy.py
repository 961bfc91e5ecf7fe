"""Lazy re-exports for the package facades (PEP 562).

A package ``__init__`` re-exports its submodules' public names through
one :func:`lazy_exports` table instead of importing them, so each name's
module is imported on the first access to that name.  Importing one
submodule (``repro.service.server``) then loads what that submodule
imports and nothing more.  ``from package import name``,
``package.name`` and ``from package import *`` work as with eager
imports, and a name missing from the table raises
:class:`AttributeError`.  The layering rule RL001 reads each table's
module strings as import edges of the package that declares it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, re-exporting
    each name of ``table`` (module -> names) from its module.

    A name equal to its module's last component is the submodule itself.
    A resolved name is stored on the package, so later accesses are
    plain attribute reads.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owner})

    return __getattr__, __dir__, list(owner)
