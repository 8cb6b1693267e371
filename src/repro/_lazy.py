"""PEP 562 lazy exports for the package ``__init__`` modules and the facade.

A package that re-exports names from its submodules would otherwise import
every submodule as soon as anything under it is imported: ``import
repro.harness.experiment`` would also load the figure and report drivers.
:func:`lazy_exports` builds the ``__getattr__``/``__dir__`` pair that
imports a submodule the first time one of its names is read, and binds the
name in the package so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    owner: str, exports: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for the module named *owner*.

    *exports* maps a module name, relative to *owner*'s package as in an
    import statement (``".figures"``), to the names *owner* takes from it.
    A name that is itself a submodule (``"api"`` from ``".api"``)
    resolves to the module.
    """
    source = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module_name = source[name]
        except KeyError:
            raise AttributeError(
                f"module {owner!r} has no attribute {name!r}"
            ) from None
        home = sys.modules[owner]
        module = importlib.import_module(module_name, home.__package__)
        if module.__name__ == f"{owner}.{name}":
            value = module
        else:
            value = getattr(module, name)
        setattr(home, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[owner])) | set(source))

    return __getattr__, __dir__
