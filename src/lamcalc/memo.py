"""The memo tables of lamcalc, and :func:`clear_caches` to empty them.

Every memo table is process-global: a module-level ``dict`` or ``set``,
or a ``functools.lru_cache`` function.  No result depends on what they
hold, only the time it takes to get it.  They are listed here rather
than registered by the modules that hold them, so that those modules do
not all reach one shared list: whatever keeps one of them alive (a type
cache keeping its classes after a re-import, say) keeps only that one.
"""

from __future__ import annotations

from . import arity, bigtree, extended, props, reduction, statics

__all__ = ["TABLES", "clear_caches"]

# Every memo table of the package.
TABLES = (
    reduction._ONE_STEP,
    reduction._FULL,
    reduction._NF,
    statics._lstas,
    statics._da,
    arity._aaa,
    extended._STEP,
    extended._SN,
    extended.frees_holds,
    bigtree._SN,
    bigtree._SUCCESSORS,
    props._lleq_recursive,
)


def clear_caches() -> None:
    """Empty every memo table, certificates included."""

    for table in TABLES:
        (getattr(table, "cache_clear", None) or table.clear)()
