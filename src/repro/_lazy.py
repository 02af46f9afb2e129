"""Lazy package re-exports (PEP 562): a name's module loads on first access.

Importing one submodule then loads no sibling the package re-exports, so a
spawned region-server worker imports only the storage engine.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from typing import Any


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``; ``exports`` maps each module to the names taken from it."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(origin[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
