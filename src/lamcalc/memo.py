"""The memo tables of lamcalc, and :func:`clear_caches` to empty them.

Every memo table is process-global: a module-level ``dict``.  No result
depends on what they hold, only the time it takes to get it.  They are
listed here rather than registered by the modules that hold them, so that
those modules do not all reach one shared list: whatever keeps one of
them alive (a type cache keeping its classes after a re-import, say)
keeps only that one.

A memoized judgment is one function: it tests that each term argument is
of a term class (a tuple equal to a term would find its entry), looks
its arguments up in its table, and on a miss computes the answer,
recursing into itself, stores it and returns it, so each level of a term
costs one stack frame.  A table keyed by the sort hierarchy is looked up
with the one ``(c, big_d)`` value that its judgment is passed and passes
on, so no call builds that key anew.  A judgment keeps a table only when
its walk can reach one part or one environment entry more than once:
``aaa``, ``one_step``, the development, ``_step_to`` and ``_frees``
reach an entry once per reference to it, so without memory a chain of
definitions costs them exponential time.  ``_frees`` alone fills a miss
on a work list, which expands each entry it reaches once, so a chain of
entries costs it no stack frame per link.  ``lstas`` and ``da`` follow
one head chain, each step into one body or one entry, so they keep none.
A judgment gets no table either when another table already holds its
work: ``normalize`` iterates the memoized development, so it honours
``fuel`` however warm the table is.  ``env_reducts`` has one although
each entry's reduct set is in ``_ONE_STEP``: their entrywise product is
work that no other table holds, and the closure certifier asks for the
same environment's product at every closure over it.  The 11 tables are
listed in :data:`TABLES`.

The tenth, ``terms._INTERN``, memoizes the term constructors: it holds
the one object of each term value built since it was last emptied, so
every other table, reduct set and certificate holds one object per
distinct term, and a hit on an equal term compares by identity.  It keys
a binder or a flat item by its code and the ``id`` of its two parts, not
by the parts: looking up a key of ints costs the same at any depth,
where hashing a term walks all of it.  An id is safe as a key because
the term stored under it holds its parts alive.  Emptying it with the
others keeps memory bounded and changes no answer: hashing, equality and
order stay the tuple's, so a term kept across ``clear_caches()`` still
equals, hashes like and finds the entries of its rebuilt twin.

The eleventh, ``terms._REFS``, holds each term's own free references,
sorted, each entry built from its children's.  A judgment reads its
environment only through ``i < len(env)`` tests on those references (de
Bruijn, "Lambda calculus notation with nameless dummies", 1972).  So a
term whose lowest free reference is at least ``len(env)``, or that has
none, reads nothing of ``env``, and every judgment on it answers, raises
and spends its budget as in ``()``.  Each judgment keyed by an
environment (``one_step``, ``_develop``, ``aaa``, ``_step_to`` and
``_frees``) keys its term under ``terms._judged_in(env, term)``, the one
statement of this rule, so the term is judged once for all the
environments it does not read.  The call costs each lookup, hit or miss,
about 20 ns in Python 3.11 (``aaa`` hit in ``()``: 222 → 245 ns).
``_frees`` stores nothing under ``()``: there its answer is the term's
own references, which ``_REFS`` holds.

A table is nested one dict level per argument, the few-valued arguments
(a sort hierarchy, a level) first, then the environment, then the term,
with the result at the leaf: ``_ONE_STEP[ext][env][term]``, say, rather
than ``_ONE_STEP[(ext, env, term)]``.  A dict keeps only the first of
equal keys, so each environment and term is held once per level however
many entries share it, where a key tuple per entry would hold its own
copy.  Terms are tuples the cyclic garbage collector always tracks, and
so is every tuple that holds one: a million key tuples and the copies
they pin made each full collection re-scan a million objects.  The
intern table's keys hold plain ints only, never an enum member, so the
collector untracks them.  Lookups chain ``.get`` calls whose default,
``reduction._UNSET``, is an empty mapping that also marks a miss where
``None`` is a result.
"""

from __future__ import annotations

from . import arity, bigtree, extended, reduction, terms

__all__ = ["clear_caches"]

# Every memo table of the package.
TABLES = (
    reduction._ONE_STEP,
    reduction._FULL,
    reduction._ENV_REDUCTS,
    arity._AAA,
    extended._STEP,
    extended._SN,
    extended._FREES,
    bigtree._SN,
    bigtree._SUCCESSORS,
    terms._INTERN,
    terms._REFS,
)


def clear_caches() -> None:
    """Empty every memo table, certificates included."""

    for table in TABLES:
        table.clear()
