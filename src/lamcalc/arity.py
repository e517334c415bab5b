"""Atomic arities: the simple-type skeleton that gates normalization.

Every sort has the base arity; an abstraction builds an arrow; an
application consumes one, demanding the argument's arity to be exactly the
domain.  Terms with an arity are strongly normalizing, so the validity
checker refuses to normalize anything without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .reduction import _UNSET, lsub_walk
from .terms import Bind, BindKind, Env, Flat, FlatKind, Sort, Term, Var, env_push

__all__ = ["Arity", "Base", "Arrow", "aaa", "lsuba_holds"]


@dataclass(frozen=True)
class Base:
    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Arrow:
    dom: "Arity"
    cod: "Arity"

    def __str__(self) -> str:
        return f"({self.dom} -> {self.cod})"


# ``|`` rather than ``typing.Union``: typing caches its aliases, which
# would keep these classes, and their module, alive after a re-import.
Arity = Base | Arrow


def aaa(env: Env, term: Term) -> Optional[Arity]:
    """Infer the atomic arity, or ``None`` if there is none."""

    return _aaa(env, term)


# Arities by environment and term; ``None`` is a result.
_AAA: dict[Env, dict[Term, Optional[Arity]]] = {}


def _aaa(env: Env, term: Term) -> Optional[Arity]:
    got = _AAA.get(env, _UNSET).get(term, _UNSET)
    if got is _UNSET:
        got = _AAA.setdefault(env, {})[term] = _aaa_raw(env, term)
    return got


def _aaa_raw(env: Env, term: Term) -> Optional[Arity]:
    cls = type(term)
    if cls is Bind:
        _, kind, side, body = term
        dom = _aaa(env, side)
        if dom is None:
            return None
        cod = _aaa(env_push(env, kind, side), body)
        if cod is None or kind == BindKind.ABBR:
            return cod
        return Arrow(dom, cod)
    if cls is Flat:
        _, kind, side, body = term
        arg = _aaa(env, side)
        fun = _aaa(env, body)
        if arg is None:
            return None
        if kind == FlatKind.CAST:  # the annotation's arity is the subject's
            return fun if arg == fun else None
        return fun.cod if type(fun) is Arrow and fun.dom == arg else None
    if cls is Var:
        _, i = term
        if i >= len(env):
            return None
        return _aaa(env[i + 1 :], env[i][1])
    if cls is Sort:
        return Base()
    raise TypeError(f"not a term: {term!r}")


def lsuba_holds(env1: Env, env2: Env) -> bool:
    """Refinement for preservation of atomic arity (atom/pair/beta)."""

    def cast_ok(rest1: Env, rest2: Env, w: Term, v: Term) -> bool:
        left = aaa(rest1, Flat(FlatKind.CAST, w, v))
        return left is not None and left == aaa(rest2, w)

    return lsub_walk(env1, env2, cast_ok)
