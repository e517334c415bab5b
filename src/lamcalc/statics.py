"""Iterated static type assignment and degree assignment.

The n-iterated static type climbs the typing chain n steps without any
beta/zeta/theta work: sorts step along the hierarchy, references through a
declaration use the declared type, references through a definition keep the
definiens' own static type.  The degree of a term counts how many such
steps remain before the chain becomes constant.  Both are deterministic
partial functions; ``None`` means the head variable of the term is not
hereditarily resolvable in the environment.  Both follow the same head
chain, so a static type exists, for every n, exactly where a degree does.
"""

from __future__ import annotations

from typing import Optional

from .reduction import _UNSET, lsub_walk
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
    _CLASSES,
    _REFS,
    _refs,
    _refuse,
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
    return _lstas(params.c, env, term, n)


# Static types by (sort step, iteration count), environment and term; and
# degrees by hierarchy, environment and term.  ``None`` is a result.
_LSTAS: dict[tuple[int, int], dict[Env, dict[Term, Optional[Term]]]] = {}
_DA: dict[tuple[int, int], dict[Env, dict[Term, Optional[int]]]] = {}


def _lstas(c: int, env: Env, term: Term, n: int) -> Optional[Term]:
    if type(term) not in _CLASSES:
        _refuse(term)
    if env:  # judged in () when it reads no entry (see lamcalc.memo)
        refs = _REFS.get(term) or _refs(term)
        if not refs or refs[0] >= len(env):
            env = ()
    got = _LSTAS.get((c, n), _UNSET).get(env, _UNSET).get(term, _UNSET)
    if got is not _UNSET:
        return got
    cls = type(term)
    if cls is Bind:
        _, kind, side, body = term
        got = _lstas(c, env_push(env, kind, side), body, n)
        if got is not None:
            got = Bind(kind, side, got)
    elif cls is Flat:  # a cast is its body's, an application keeps its argument
        _, kind, side, body = term
        got = _lstas(c, env, body, n)
        if got is not None and kind != FlatKind.CAST:
            got = Flat(kind, side, got)
    elif cls is Var:
        _, i = term
        got = None
        if i < len(env):
            kind, side = env[i]
            rest = env[i + 1 :]
            if kind != BindKind.ABBR and n == 0:
                # a declared variable is its own static type, provided the
                # declared type has one
                if _lstas(c, rest, side, 0) is not None:
                    got = term
            else:
                inner = _lstas(c, rest, side, n if kind == BindKind.ABBR else n - 1)
                if inner is not None:
                    got = lift(0, i + 1, inner)
    else:  # a sort
        got = Sort(term[1] + n * c)
    _LSTAS.setdefault((c, n), {}).setdefault(env, {})[term] = got
    return got


def da(params: Params, env: Env, term: Term) -> Optional[int]:
    """Degree of a term, or ``None`` when unassigned."""

    return _da((params.c, params.big_d), env, term)


def _da(ext: tuple[int, int], env: Env, term: Term) -> Optional[int]:
    if type(term) not in _CLASSES:
        _refuse(term)
    if env:  # judged in () when it reads no entry (see lamcalc.memo)
        refs = _REFS.get(term) or _refs(term)
        if not refs or refs[0] >= len(env):
            env = ()
    got = _DA.get(ext, _UNSET).get(env, _UNSET).get(term, _UNSET)
    if got is not _UNSET:
        return got
    cls = type(term)
    if cls is Bind:
        _, kind, side, body = term
        got = _da(ext, env_push(env, kind, side), body)
    elif cls is Flat:
        got = _da(ext, env, term[3])
    elif cls is Var:
        _, i = term
        got = None
        if i < len(env):
            kind, side = env[i]
            got = _da(ext, env[i + 1 :], side)
            if got is not None and kind != BindKind.ABBR:
                got += 1
    else:  # a sort
        c, big_d = ext
        got = max(big_d - term[1] // c, 0)
    _DA.setdefault(ext, {}).setdefault(env, {})[term] = got
    return got


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
