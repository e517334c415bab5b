"""Core data model: terms, environments, closures, calculus parameters.

Terms are written with de Bruijn indices.  There are two atoms (sorts and
variable references) and four binary constructors, grouped into two shapes:

* binders (``Bind``): abbreviation ``abbr v t`` ("let" with body ``t``) and
  typed abstraction ``abst w t`` (lambda with domain ``w``);
* flat items (``Flat``): application ``appl v t`` (``t`` applied to the
  argument ``v``) and type annotation ``cast w t``.

Each term is an immutable tagged tuple, ``(tag, *fields)`` with tags 0-3
for ``Sort``, ``Var``, ``Bind`` and ``Flat``; see :class:`Term`.  A term is
therefore hashed, compared and ordered by the tuple machinery, and it is
its own sort key.  The constructors hash-cons: each returns the one
object of its value that the intern table holds, so equal terms built
since the memo tables were last emptied are one object (Filliâtre and
Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006).

Environments are stacks of named-free entries, one per binder that has been
walked under.  Entry 0 is the innermost one, i.e. the entry that ``#0``
refers to.  The concrete text syntax lists entries outermost first; see
:mod:`lamcalc.sexpr`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

__all__ = [
    "BindKind",
    "FlatKind",
    "Term",
    "Sort",
    "Var",
    "Bind",
    "Flat",
    "Env",
    "Closure",
    "Params",
    "abbr",
    "abst",
    "appl",
    "cast",
    "env_push",
    "length",
    "append",
    "applv",
    "simple",
    "tsts",
    "term_size",
]


class BindKind(enum.IntEnum):
    """Binder flavours: a definition (let) or a typed declaration (lambda)."""

    ABBR = 0
    ABST = 1


class FlatKind(enum.IntEnum):
    """Non-binding flavours: application or type annotation."""

    APPL = 0
    CAST = 1


class Term(tuple):
    """Base class for the four term constructors.

    A term is a tuple: an int tag naming its constructor, then the
    constructor's fields.  ``Sort(k)`` is ``(0, k)``, ``Var(i)`` is
    ``(1, i)``, ``Bind(kind, side, body)`` is ``(2, kind, side, body)`` and
    ``Flat(kind, side, body)`` is ``(3, kind, side, body)``.

    Hashing, equality and ordering are the tuple's own, so they run in C.
    The tag keeps constructors with equal fields apart, and tuple order is
    the total order on terms: by constructor (atoms first, then binders,
    then flat items), then kind, then children.
    Fields are read-only properties named by ``__match_args__``, so class
    patterns match positionally and by keyword.

    Each constructor returns the canonical object of its value, the one
    in the intern table ``_INTERN``, and builds and stores it on a miss.
    A binder or a flat item is looked up by its kind and the ids of its
    parts, so a lookup costs the same at any depth, and its parts are
    tested to be terms only on a miss.  Its kind is stored as the enum
    member, also when passed as a plain int, so no term depends on which
    of two equal terms was built first.  So a memo table, a reduct set or
    a certificate holds one object per distinct term, and comparing two
    equal terms stops at their first shared part.  The intern table is a
    memo table: ``clear_caches()`` empties it.  A term kept across that
    still equals and hashes like its twin rebuilt after it, but is another
    object, and so is any term built on its parts.

    The kernel dispatches on ``type(t)`` and unpacks the tuple; class
    patterns are for callers and the independent oracles.  In Python 3.11
    a call that matches one ``abst`` term against the four classes costs
    about 0.45 us, 0.94 us with a value pattern such as
    ``Bind(BindKind.ABST, side, body)``, against 0.09 us for the type
    test and the unpacking: a pattern tests ``isinstance`` and then calls
    one property per field.
    """

    __slots__ = ()

    def __reduce__(self) -> tuple:
        # copy and pickle, at every protocol, rebuild a term through its
        # constructor, which returns the canonical object
        return type(self), tuple(self[1:])

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self[1:])
        )
        return f"{type(self).__name__}({fields})"


class Sort(Term):
    """Sort (universe) constant ``*k``."""

    __slots__ = ()
    __match_args__ = ("k",)
    k = property(itemgetter(1))

    def __new__(cls, k: int) -> Sort:
        key = (0, k)
        term = _INTERN.get(key)
        if term is None:
            term = _INTERN[key] = tuple.__new__(cls, key)
        return term


class Var(Term):
    """Variable reference ``#i`` by de Bruijn depth."""

    __slots__ = ()
    __match_args__ = ("i",)
    i = property(itemgetter(1))

    def __new__(cls, i: int) -> Var:
        key = (1, i)
        term = _INTERN.get(key)
        if term is None:
            term = _INTERN[key] = tuple.__new__(cls, key)
        return term


class _Item(Term):
    """``Bind`` and ``Flat``, which share their fields and constructor.

    ``_KINDS``, indexed by a kind's value, gives the item's intern code,
    ``2 * tag + kind`` (a plain int, so the collector untracks the keys),
    and the enum member, which the term stores whatever was passed.
    """

    __slots__ = ()
    __match_args__ = ("kind", "side", "body")
    kind = property(itemgetter(1))
    side = property(itemgetter(2))
    body = property(itemgetter(3))

    def __new__(cls, kind: int, side: Term, body: Term) -> _Item:
        code, kind = cls._KINDS[kind]
        key = (code, id(side), id(body))
        term = _INTERN.get(key)
        if term is None:
            if type(side) not in _CLASSES or type(body) not in _CLASSES:
                _refuse(side, body)
            term = _INTERN[key] = tuple.__new__(cls, (code >> 1, kind, side, body))
        return term


class Bind(_Item):
    """Binder: ``abbr side body`` or ``abst side body``.

    The ``side`` is the definiens (for ABBR) or the declared type (for
    ABST); ``body`` lives under one more binder.
    """

    __slots__ = ()
    _KINDS = ((4, BindKind.ABBR), (5, BindKind.ABST))


class Flat(_Item):
    """Flat item: ``appl side body`` or ``cast side body``.

    For APPL the ``side`` is the argument and ``body`` the function part;
    for CAST the ``side`` is the annotation and ``body`` the subject.
    """

    __slots__ = ()
    _KINDS = ((6, FlatKind.APPL), (7, FlatKind.CAST))


# The intern table: the one term of each value built since it was last
# emptied (see Term).  An atom is keyed by its own value, ``(tag, k)``; a
# binder or a flat item by its code and the ids of its two parts, which
# stay valid because the term stored under the key holds those parts.
_INTERN: dict[tuple[int, ...], Term] = {}

# The four term classes.  ``_judged_in`` tests a memoized judgment's term
# against these before its table is read, and a binder or a flat item
# refuses parts of any other class: a tuple equal to a term hashes and
# compares like it, so only the class tells them apart.
_CLASSES = frozenset((Sort, Var, Bind, Flat))


def _refuse(*parts: object) -> None:
    """Raise ``TypeError`` on the first of ``parts`` that is not a term."""

    for part in parts:
        if type(part) not in _CLASSES:
            raise TypeError(f"not a term: {part!r}")


def abbr(v: Term, t: Term) -> Bind:
    return Bind(BindKind.ABBR, v, t)


def abst(w: Term, t: Term) -> Bind:
    return Bind(BindKind.ABST, w, t)


def appl(v: Term, t: Term) -> Flat:
    return Flat(FlatKind.APPL, v, t)


def cast(w: Term, t: Term) -> Flat:
    return Flat(FlatKind.CAST, w, t)


# An environment entry pairs a binder flavour with its side term: ABBR
# entries carry a definiens ("def" in the text syntax), ABST entries carry
# a declared type ("dec").  Environments are plain tuples, entry 0
# innermost.
Entry = tuple[BindKind, Term]
Env = tuple[Entry, ...]


class Closure(NamedTuple):
    """A term together with the environment it is read in."""

    env: Env
    term: Term


@dataclass(frozen=True)
class Params:
    """Calculus parameters.

    ``c`` and ``big_d`` fix the sort hierarchy: the next sort after ``*k``
    is ``*(k+c)`` and the degree of ``*k`` is ``big_d - k//c`` clipped at
    zero.  ``fuel`` bounds normalization rounds, ``budget`` bounds node and
    set sizes in searches and graph traversals.
    """

    c: int = 1
    big_d: int = 2
    fuel: int = 1000
    budget: int = 100000

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError("sort step c must be >= 1")
        if self.big_d < 0 or self.fuel < 0 or self.budget < 0:
            raise ValueError("big_d, fuel and budget must be naturals")


def env_push(env: Env, kind: BindKind, side: Term) -> Env:
    """Extend ``env`` with one innermost entry (the new ``#0``)."""

    return ((kind, side),) + env


def length(env: Env) -> int:
    """Number of entries."""

    return len(env)


def append(outer: Env, inner: Env) -> Env:
    """Concatenate: the entries of ``inner`` become the innermost ones."""

    return inner + outer


def applv(args: tuple[Term, ...], t: Term) -> Term:
    """Iterated application of ``t`` to a vector of arguments.

    ``applv((v1, v2), t)`` is ``appl v1 (appl v2 t)``.
    """

    out = t
    for v in reversed(args):
        out = Flat(FlatKind.APPL, v, out)
    return out


def simple(t: Term) -> bool:
    """True for terms that are not binders."""

    return not isinstance(t, Bind)


def tsts(t1: Term, t2: Term) -> bool:
    """Same top structure: identical atom, or same-kind binary constructor."""

    _refuse(t1, t2)
    # the first field: an atom's sort or index, a binary constructor's kind
    return type(t1) is type(t2) and t1[1] == t2[1]


def term_size(t: Term) -> int:
    """Number of constructors in ``t``."""

    cls = type(t)
    if cls is Bind or cls is Flat:
        _, _, side, body = t
        return 1 + term_size(side) + term_size(body)
    if cls is Sort or cls is Var:
        return 1
    raise TypeError(f"not a term: {t!r}")


# The free references of each term, sorted: the indices its references
# reach past the binders around them.  A memo table keyed by the term.
_REFS: dict[Term, tuple[int, ...]] = {}


def _refs(term: Term) -> tuple[int, ...]:
    """The free references of ``term``, sorted.

    A judgment reads its environment only through these: when the lowest
    is at least ``len(env)``, or there is none, the term reads nothing of
    ``env``, and every judgment on it answers, raises and spends its
    budget as in ``()``.  A miss fills in each missing part below the
    term, children before parents, on an explicit stack, so it takes no
    stack frame per level.
    """

    got = _REFS.get(term)
    if got is not None:
        return got
    stack = [term]
    while stack:
        t = stack[-1]
        cls = type(t)
        if cls is Bind or cls is Flat:
            _, _, side, body = t
            outer, inner = _REFS.get(side), _REFS.get(body)
            if outer is None or inner is None:
                if outer is None:
                    stack.append(side)
                if inner is None:
                    stack.append(body)
                continue
            if cls is Bind:  # the body's #0 is the binder's own entry
                inner = [j - 1 for j in inner if j]
            got = tuple(sorted(set(outer).union(inner))) if inner else outer
        elif cls is Var:
            got = (t[1],)
        elif cls is Sort:
            got = ()
        else:
            raise TypeError(f"not a term: {t!r}")
        _REFS[t] = got
        stack.pop()
    return got


def _judged_in(env: Env, term: Term) -> Env:
    """The environment a memoized judgment keys ``term`` under: ``()``
    when ``term`` reads no entry of ``env`` (see ``_refs``), else ``env``.

    The class test comes first, in every environment: a tuple equal to a
    term would find that term's entries, in ``_REFS`` and in the table.
    """

    if type(term) not in _CLASSES:
        raise TypeError(f"not a term: {term!r}")
    if env:
        refs = _REFS.get(term)
        if refs is None:
            refs = _refs(term)
        if not refs or refs[0] >= len(env):
            return ()
    return env


def closure_measure(c: Closure) -> int:
    """Sum of the constructors of the term and of every entry side.

    This is the measure that strictly decreases along direct subclosure
    steps, which is what makes recursion over subclosures well founded.
    """

    return term_size(c.term) + sum(term_size(w) for _, w in c.env)
