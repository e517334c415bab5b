"""Parallel reduction.

``cpr_reducts`` enumerates every term reachable from a closure in one step
of parallel reduction, which contracts any number of redexes at once.  The
redexes are:

* delta — unfold a reference to a definition entry;
* beta  — ``appl v (abst w t)`` steps to ``abbr (cast w v) t``, keeping
  the annotated argument as a definition;
* zeta  — drop a definition binder no longer referred to by its body;
* eps   — drop a type annotation;
* theta — push an application argument under a definition binder.

``_contractions`` states these rules once, for plain and extended
reduction: the redexes at the top of a term, contracted, each part of a
redex standing for every choice a ``sub`` function offers for it.  Three
relations are built on it and differ only in that choice: ``one_step``
(every one-step reduct of each part), the single-redex skeleton
``extended._seq_steps`` (the part itself) and the maximal development
``cpr_full`` (the part's development).  ``lpr_reducts`` applies the same
relation inside environment entries.  ``normalize`` iterates the
development, and ``conv`` compares normal forms.  ``lsubr_holds``, the
refinement on environments that preserves reduction, runs ``lsub_walk``.
"""

from __future__ import annotations

from itertools import product
from math import prod
from types import MappingProxyType
from typing import Callable, Collection, Optional

from .errors import BudgetExceeded, FuelExhausted
from .relocation import delift, lift
from .terms import (
    Bind,
    BindKind,
    Env,
    Flat,
    FlatKind,
    Params,
    Sort,
    Term,
    Var,
    _judged_in,
    env_push,
)
from .traversal import reach

__all__ = [
    "cpr_reducts",
    "cpr_holds",
    "lpr_reducts",
    "lpr_holds",
    "cpr_full",
    "normalize",
    "cprs_holds",
    "conv",
    "lsubr_holds",
]

DEFAULT_BUDGET = Params.budget
DEFAULT_FUEL = Params.fuel

# Extended-rule switch of the one-step core: None for plain reduction, or
# the sort hierarchy ``(c, big_d)`` of the extended relation.
Ext = Optional[tuple[int, int]]

# The memo tables are nested one level per argument (see lamcalc.memo).
_ONE_STEP: dict[Ext, dict[Env, dict[Term, frozenset[Term]]]] = {}
_FULL: dict[Env, dict[Term, Term]] = {}
_ENV_REDUCTS: dict[Ext, dict[Env, frozenset[Env]]] = {}

# The default of every ``.get`` in a lookup through nested memo tables: a
# level that holds nothing yet reads as this empty mapping, and a miss at
# the leaf as this same object, which no table stores as a result.
_UNSET = MappingProxyType({})


def _guard(n: int, budget: int) -> None:
    if n > budget:
        raise BudgetExceeded(f"reduct set would exceed {budget} elements")


def one_step(ext: Ext, env: Env, term: Term, budget: int) -> frozenset[Term]:
    """All one-step parallel reducts of ``term`` in ``env`` (incl. itself).

    ``ext`` is None for plain reduction; ``(c, big_d)`` adds the extended
    rules: the sort step ``*k`` to ``*k+c`` while the degree is positive,
    delta on declarations, and keeping a cast's annotation.

    ``BudgetExceeded`` is raised when the returned set has more than
    ``budget`` elements, whether or not the memo table already holds it.
    Enumeration raises early on any product of sub-reduct sets over the
    budget; each such product is a lower bound on the final size, so this
    changes when it raises, not whether.
    """

    env = _judged_in(env, term)  # () when it reads no entry of env
    got = _ONE_STEP.get(ext, _UNSET).get(env, _UNSET).get(term)
    if got is None:

        def sub(e: Env, t: Term) -> frozenset[Term]:
            return one_step(ext, e, t, budget)

        out = _congruence(env, term, sub, budget)
        out.update(_contractions(ext, env, term, sub, budget))
        got = frozenset(out)  # copied from a set, its table is sized to fit
        _ONE_STEP.setdefault(ext, {}).setdefault(env, {})[term] = got
    _guard(len(got), budget)
    return got


# ``sub(env, part)`` in the two functions below: the choices for a part of
# ``term`` in the part's own environment.  Every one-step reduct for
# enumeration, the part itself for the single-redex skeleton, and its
# development, as a 1-tuple, for the maximal development.
Sub = Callable[[Env, Term], Collection[Term]]


def _congruence(env: Env, term: Term, sub: Sub, budget: int) -> set[Term]:
    """``term`` rebuilt from every choice for its side and body; an atom
    is its own only choice."""

    cls = type(term)
    if cls is not Bind and cls is not Flat:
        return {term}
    _, kind, side, body = term
    inner = env_push(env, kind, side) if cls is Bind else env
    sides, bodies = sub(env, side), sub(inner, body)
    _guard(len(sides) * len(bodies), budget)
    return {cls(kind, s2, b2) for s2 in sides for b2 in bodies}


def _contractions(ext: Ext, env: Env, term: Term, sub: Sub, budget: int):
    """The redex rules, the one place they are stated: every redex at the
    top of ``term``, contracted, with each part of the redex replaced by
    every choice ``sub`` offers for it.  Raises ``TypeError`` on a
    non-term."""

    cls = type(term)
    if cls is Flat:
        _, kind, side, body = term
        if kind == FlatKind.CAST:  # eps; extended, keep the annotation
            yield from sub(env, body)
            if ext is not None:
                yield from sub(env, side)
        elif type(body) is Bind:  # beta or theta
            _, kind, u, s = body
            parts = sub(env, side), sub(env, u), sub(env_push(env, kind, u), s)
            _guard(prod(map(len, parts)), budget)
            for v2, u2, s2 in product(*parts):
                if kind == BindKind.ABST:  # beta
                    yield Bind(BindKind.ABBR, Flat(FlatKind.CAST, u2, v2), s2)
                else:  # theta
                    v2 = lift(0, 1, v2)
                    yield Bind(BindKind.ABBR, u2, Flat(FlatKind.APPL, v2, s2))
    elif cls is Bind:
        _, kind, side, body = term
        if kind == BindKind.ABBR:  # zeta
            for b2 in sub(env_push(env, kind, side), body):
                dropped = delift(0, 1, b2)
                if dropped is not None:
                    yield dropped
    elif cls is Var:  # delta, on declarations too when extended
        _, i = term
        if i < len(env) and (ext is not None or env[i][0] == BindKind.ABBR):
            for v2 in sub(env[i + 1 :], env[i][1]):
                yield lift(0, i + 1, v2)
    elif cls is Sort:  # the sort step, extended only
        if ext is not None and max(ext[1] - term[1] // ext[0], 0) >= 1:
            yield Sort(term[1] + ext[0])
    else:
        raise TypeError(f"not a term: {term!r}")


def cpr_reducts(env: Env, term: Term, budget: int = DEFAULT_BUDGET) -> frozenset[Term]:
    """All one-step parallel reducts of ``term`` in ``env`` (incl. itself)."""

    return one_step(None, env, term, budget)


def cpr_holds(env: Env, t1: Term, t2: Term, budget: int = DEFAULT_BUDGET) -> bool:
    return t2 in cpr_reducts(env, t1, budget)


def env_reducts(ext: Ext, env: Env, budget: int) -> frozenset[Env]:
    """One step of the ``ext`` relation inside the entries, each entry in
    its own outer environment, kinds unchanged: the entrywise product.

    Like :func:`one_step`, it raises ``BudgetExceeded`` when the returned
    set has more than ``budget`` elements, hit or miss.  A miss raises as
    soon as the product of the entries' reduct sets so far exceeds the
    budget; that product is a lower bound on the final size.
    """

    got = _ENV_REDUCTS.get(ext, _UNSET).get(env)
    if got is None:
        choices = []
        total = 1
        for i, (kind, side) in enumerate(env):
            reducts = one_step(ext, env[i + 1 :], side, budget)
            total *= len(reducts)
            _guard(total, budget)
            choices.append([(kind, s2) for s2 in reducts])
        got = frozenset(tuple(picked) for picked in product(*choices))
        _ENV_REDUCTS.setdefault(ext, {})[env] = got
    _guard(len(got), budget)
    return got


def lpr_reducts(env: Env, budget: int = DEFAULT_BUDGET) -> frozenset[Env]:
    """One parallel step inside the entries; each entry reduces in its own
    outer environment, kinds unchanged."""

    return env_reducts(None, env, budget)


def lpr_holds(env1: Env, env2: Env, budget: int = DEFAULT_BUDGET) -> bool:
    return env2 in lpr_reducts(env1, budget)


def cpr_full(env: Env, term: Term) -> Term:
    """Maximal development: contract the top redex with every part
    developed, or, at a term that is no redex, develop each part."""

    return _develop(env, term)[0]


def _develop(env: Env, term: Term) -> tuple[Term]:
    # A 1-tuple, so that this is the ``sub`` of the redex rules.  In plain
    # reduction at most one rule applies at any term, so the loop binds at
    # most one contraction, and that is the development.  Running the
    # generator to its end is cheaper than closing it early, and ``next``
    # would cost a level of the recursion limit while it runs unspecialized.
    env = _judged_in(env, term)  # () when it reads no entry of env
    got = _FULL.get(env, _UNSET).get(term)
    if got is None:
        for got in _contractions(None, env, term, _develop, 1):
            pass
        if got is None:
            (got,) = _congruence(env, term, _develop, 1)
        _FULL.setdefault(env, {})[term] = got
    return (got,)


def normalize(env: Env, term: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Iterate cpr_full to a fixpoint; raise FuelExhausted past ``fuel``."""

    t = term
    for _ in range(fuel + 1):
        (t2,) = _develop(env, t)  # one frame fewer than cpr_full
        if t2 == t:
            return t
        t = t2
    raise FuelExhausted(f"no normal form within {fuel} rounds")


def cprs_holds(env: Env, t1: Term, t2: Term, budget: int = DEFAULT_BUDGET) -> bool:
    """Breadth-first: is ``t2`` reachable from ``t1`` by parallel steps?

    ``budget`` bounds the set of visited terms.  Each step's reduct set is
    held to the default budget instead: one term's reducts may outnumber a
    small visit budget while the target is a single step away.
    """

    return t1 == t2 or any(
        t2 in out for _, out in reach(t1, lambda t: cpr_reducts(env, t), budget)
    )


def conv(env: Env, t1: Term, t2: Term, fuel: int = DEFAULT_FUEL) -> bool:
    """Conversion via unique normal forms."""

    return normalize(env, t1, fuel) == normalize(env, t2, fuel)


def lsub_walk(
    env1: Env, env2: Env, cast_ok: Callable[[Env, Env, Term, Term], bool]
) -> bool:
    """The walk shared by the environment refinements.

    ``env1`` refines ``env2`` when both have the same length and agree
    entrywise, except that a declaration ``dec w`` of ``env2`` may stand as
    a definition ``def (cast w v)`` in ``env1`` when
    ``cast_ok(rest1, rest2, w, v)`` holds, the rests being the outer
    entries of each environment.  Entries are visited outermost first.
    """

    if len(env1) != len(env2):
        return False
    for i in reversed(range(len(env1))):
        (k1, s1), (k2, s2) = env1[i], env2[i]
        if k1 == k2 and s1 == s2:
            continue
        if not (
            (k1, k2) == (BindKind.ABBR, BindKind.ABST)
            and type(s1) is Flat
            and s1[1] == FlatKind.CAST
            and s1[2] == s2
            and cast_ok(env1[i + 1 :], env2[i + 1 :], s1[2], s1[3])
        ):
            return False
    return True


def lsubr_holds(env1: Env, env2: Env) -> bool:
    """Refinement for reduction: ``env1`` may turn declarations of ``env2``
    into definitions by annotated terms, and may carry extra outer entries."""

    return lsub_walk(env1[: len(env2)], env2, lambda *_: True)
