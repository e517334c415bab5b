"""Import lamcalc from the checkout and keep its memo tables cold.

Every memo table in lamcalc is process-global.  The benchmark finds them
from outside, right after a fresh import: each module-level ``dict`` or
``set`` that is empty at that moment, and each ``functools.lru_cache``
function.  It empties them between rounds and checks, before anything is
timed, that they are empty, so no round profits from an earlier one.

A table that must survive a round (an intern table, say) should not be a
plain module-level dict or set; a ``weakref.WeakValueDictionary`` is
neither and is left alone.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

__all__ = ["SRC", "MemoTables", "fresh_import"]

SRC = Path(__file__).resolve().parent.parent / "src"


def _purge() -> None:
    for name in [m for m in sys.modules if m == "lamcalc" or m.startswith("lamcalc.")]:
        del sys.modules[name]


def fresh_import(*names: str):
    """Import ``lamcalc`` and the named submodules anew from ``src/``.

    Returns the top-level package.  Refuses to run on any other copy of
    lamcalc, such as an installed one.
    """

    if not (SRC / "lamcalc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lamcalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _purge()
    pkg = importlib.import_module("lamcalc")
    for name in names:
        importlib.import_module(f"lamcalc.{name}")
    if Path(pkg.__file__).resolve().parent != SRC / "lamcalc":
        raise SystemExit(f"perfbench: imported lamcalc from {pkg.__file__}")
    return pkg


class MemoTables:
    """The memo tables of the lamcalc modules loaded at construction.

    Construct it straight after :func:`fresh_import`, before any lamcalc
    function has run.
    """

    def __init__(self) -> None:
        self.tables: list[tuple[str, str, object]] = []
        seen: set[int] = set()
        for modname, module in sorted(sys.modules.items()):
            if not modname.startswith("lamcalc."):
                continue
            for attr, obj in vars(module).items():
                if id(obj) in seen:
                    continue
                is_memo = type(obj) in (dict, set) and not obj
                is_lru = callable(getattr(obj, "cache_clear", None)) and (
                    getattr(obj, "__module__", None) == modname
                )
                if is_memo or is_lru:
                    seen.add(id(obj))
                    self.tables.append((modname.split(".", 1)[1], attr, obj))

    @staticmethod
    def _size(obj) -> int:
        info = getattr(obj, "cache_info", None)
        return info().currsize if info is not None else len(obj)

    def sizes(self) -> dict[str, int]:
        """Entries per table, keyed ``module.name``."""

        return {f"{mod}.{attr}": self._size(obj) for mod, attr, obj in self.tables}

    def entries_by_module(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for mod, _, obj in self.tables:
            out[mod] = out.get(mod, 0) + self._size(obj)
        return out

    def clear(self) -> None:
        for _, _, obj in self.tables:
            clear = getattr(obj, "cache_clear", None) or obj.clear
            clear()

    def check_cold(self) -> None:
        """Raise unless every table is empty."""

        warm = {name: n for name, n in self.sizes().items() if n}
        if warm:
            raise RuntimeError(f"memo tables not empty before timing: {warm}")
