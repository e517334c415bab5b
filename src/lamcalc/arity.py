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
from .terms import (
    Bind,
    BindKind,
    Env,
    Flat,
    FlatKind,
    Term,
    Var,
    _CLASSES,
    _refuse,
    env_push,
)

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


# Arities by environment and term; ``None`` is a result.
_AAA: dict[Env, dict[Term, Optional[Arity]]] = {}


def aaa(env: Env, term: Term) -> Optional[Arity]:
    """Infer the atomic arity, or ``None`` if there is none."""

    if type(term) not in _CLASSES:
        _refuse(term)
    got = _AAA.get(env, _UNSET).get(term, _UNSET)
    if got is not _UNSET:
        return got
    cls = type(term)
    if cls is Bind:
        _, kind, side, body = term
        dom = aaa(env, side)
        cod = None if dom is None else aaa(env_push(env, kind, side), body)
        got = cod if cod is None or kind == BindKind.ABBR else Arrow(dom, cod)
    elif cls is Flat:
        _, kind, side, body = term
        arg = aaa(env, side)
        fun = aaa(env, body)
        if arg is None:
            got = None
        elif kind == FlatKind.CAST:  # the annotation's arity is the subject's
            got = fun if arg == fun else None
        else:
            got = fun.cod if type(fun) is Arrow and fun.dom == arg else None
    elif cls is Var:
        _, i = term
        got = aaa(env[i + 1 :], env[i][1]) if i < len(env) else None
    else:  # a sort
        got = Base()
    _AAA.setdefault(env, {})[term] = got
    return got


def lsuba_holds(env1: Env, env2: Env) -> bool:
    """Refinement for preservation of atomic arity (atom/pair/beta)."""

    def cast_ok(rest1: Env, rest2: Env, w: Term, v: Term) -> bool:
        left = aaa(rest1, Flat(FlatKind.CAST, w, v))
        return left is not None and left == aaa(rest2, w)

    return lsub_walk(env1, env2, cast_ok)
