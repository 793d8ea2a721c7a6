"""PEP 562 lazy re-exports: the one ``__getattr__`` every package facade shares.

A facade says where each of its public names lives and imports nothing.  The
first ``pkg.name`` (or ``from pkg import name``) imports that one defining
module and stores the object in the package's namespace, so every later
access is a plain dict hit and never reaches ``__getattr__`` again::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "change": ("Change", "ChangeSet"),       # repro.core.change
        "spec": ("SystemConfig",),               # repro.core.spec
    })

The rule the facades keep (ARCHITECTURE "Cold start"): a facade never
imports; ``import repro.core.change`` costs ``repro.core.change``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package owning ``namespace``.

    ``exports`` maps a module path relative to the package (``"change"``,
    ``"core.change"``) to the names re-exported from it; ``__all__`` lists
    them in that order.
    """
    package = namespace["__name__"]
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace).union(origin))

    return list(origin), __getattr__, __dir__
