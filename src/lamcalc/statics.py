"""Iterated static type assignment and degree assignment.

The n-iterated static type climbs the typing chain n steps without any
beta/zeta/theta work: sorts step along the hierarchy, references through a
declaration use the declared type, references through a definition keep the
definiens' own static type.  The degree of a term counts how many such
steps remain before the chain becomes constant.  Both are deterministic
partial functions; ``None`` means the head variable of the term is not
hereditarily resolvable in the environment.  Both follow the same head
chain, so a static type exists, for every n, exactly where a degree does.

Each step of either walk goes into one body or one environment entry,
never two, so a call visits each binder, item and entry on its head chain
at most once.  Neither keeps a memo table: one would save no work within
a call, and hashing its key walks the whole term and environment.
"""

from __future__ import annotations

from typing import Optional

from .reduction import lsub_walk
from .relocation import lift
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
    env_push,
)

__all__ = ["lstas", "da", "lsubd_holds"]


def lstas(params: Params, env: Env, term: Term, n: int) -> Optional[Term]:
    """The n-iterated static type, or ``None`` when unassigned.

    Raises ``ValueError`` when ``n`` is negative: the chain has no step
    before the term itself.
    """

    if n < 0:
        raise ValueError("iteration count n must be a natural")
    cls = type(term)
    if cls is Bind:
        _, kind, side, body = term
        got = lstas(params, env_push(env, kind, side), body, n)
        return None if got is None else Bind(kind, side, got)
    if cls is Flat:  # a cast is its body's, an application keeps its argument
        _, kind, side, body = term
        got = lstas(params, env, body, n)
        if got is None or kind == FlatKind.CAST:
            return got
        return Flat(kind, side, got)
    if cls is Var:
        _, i = term
        if i >= len(env):
            return None
        kind, side = env[i]
        rest = env[i + 1 :]
        if kind != BindKind.ABBR and n == 0:
            # a declared variable is its own static type, provided the
            # declared type has one
            return None if lstas(params, rest, side, 0) is None else term
        got = lstas(params, rest, side, n if kind == BindKind.ABBR else n - 1)
        return None if got is None else lift(0, i + 1, got)
    if cls is Sort:
        return Sort(term[1] + n * params.c)
    raise TypeError(f"not a term: {term!r}")


def da(params: Params, env: Env, term: Term) -> Optional[int]:
    """Degree of a term, or ``None`` when unassigned."""

    cls = type(term)
    if cls is Bind:
        _, kind, side, body = term
        return da(params, env_push(env, kind, side), body)
    if cls is Flat:
        return da(params, env, term[3])
    if cls is Var:
        _, i = term
        if i >= len(env):
            return None
        kind, side = env[i]
        got = da(params, env[i + 1 :], side)
        if got is None or kind == BindKind.ABBR:
            return got
        return got + 1
    if cls is Sort:
        return max(params.big_d - term[1] // params.c, 0)
    raise TypeError(f"not a term: {term!r}")


def lsubd_holds(params: Params, env1: Env, env2: Env) -> bool:
    """Refinement for preservation of degree.

    ``env1`` refines ``env2`` when they agree entrywise, except that a
    declaration ``dec w`` of ``env2`` may appear in ``env1`` as a definition
    ``def (cast w v)`` whose definiens sits one degree below its annotation.
    """

    def cast_ok(rest1: Env, rest2: Env, w: Term, v: Term) -> bool:
        dv = da(params, rest1, v)
        dw = da(params, rest2, w)
        return dv is not None and dw is not None and dv == dw + 1

    return lsub_walk(env1, env2, cast_ok)
