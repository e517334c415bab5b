"""The memo tables of lamcalc, and :func:`clear_caches` to empty them.

Every memo table is process-global: a module-level ``dict``.  No result
depends on what they hold, only the time it takes to get it.  They are
listed here rather than registered by the modules that hold them, so that
those modules do not all reach one shared list: whatever keeps one of
them alive (a type cache keeping its classes after a re-import, say)
keeps only that one.

A memoized judgment is one function: it tests that each term argument is
of a term class (a tuple equal to a term would find its entry), looks its
arguments up in its table, and on a miss computes the answer, recursing
into itself, stores it and returns it, so each level of a term costs one
stack frame.  A
table keyed by the sort hierarchy is looked up with the one
``(c, big_d)`` value that its judgment is passed and passes on, so no
call builds that key anew.  A judgment gets no table when another table
already holds its work: ``normalize`` iterates the memoized development,
so it honours ``fuel`` however warm the table is.  ``env_reducts`` has
one although each entry's reduct set is in ``_ONE_STEP``: their
entrywise product is work that no other table holds, and the closure
certifier asks for the same environment's product at every closure over
it.  The 11 tables are listed in :data:`TABLES`.

A table is nested one dict level per argument, the few-valued arguments
(a sort hierarchy, a level) first, then the environment, then the term,
with the result at the leaf: ``_ONE_STEP[ext][env][term]``, say, rather
than ``_ONE_STEP[(ext, env, term)]``.  A dict keeps only the first of
equal keys, so each environment and term is held once per level however
many entries share it, where a key tuple per entry would hold its own
copy.  Terms are tuples the cyclic garbage collector always tracks, and
so is every tuple that holds one: a million key tuples and the copies
they pin made each full collection re-scan a million objects.  Lookups
chain ``.get`` calls whose default, ``reduction._UNSET``, is an empty
mapping that also marks a miss where ``None`` is a result.
"""

from __future__ import annotations

from . import arity, bigtree, extended, reduction, statics

__all__ = ["clear_caches"]

# Every memo table of the package.
TABLES = (
    reduction._ONE_STEP,
    reduction._FULL,
    reduction._ENV_REDUCTS,
    statics._LSTAS,
    statics._DA,
    arity._AAA,
    extended._STEP,
    extended._SN,
    extended._FREES,
    bigtree._SN,
    bigtree._SUCCESSORS,
)


def clear_caches() -> None:
    """Empty every memo table, certificates included."""

    for table in TABLES:
        table.clear()
