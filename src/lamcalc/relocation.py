"""Relocation of de Bruijn references and the matching environment slicing.

``lift(l, m, t)`` shifts every reference of ``t`` at depth ``l`` or deeper
up by ``m``; ``delift`` is its partial inverse.  Both are one walk, a shift
by a signed distance.  ``drop(l, m, env)`` removes the ``m`` entries found
at depth ``l``, delifting the entries kept below them; it is the
environment counterpart of ``lift`` and is partial as well.  Partial
operations return ``None`` when undefined.  Each raises ``ValueError`` on a
negative level or height.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .terms import Bind, Env, Flat, Sort, Term, Var

__all__ = [
    "lift",
    "delift",
    "liftv",
    "lifts",
    "drop",
    "drops",
    "lreq",
]

# A relocation pair (level, height).
RelocPair = tuple[int, int]


def _naturals(l: int, m: int) -> None:
    if l < 0 or m < 0:
        raise ValueError(f"level l and height m must be naturals, not {l} and {m}")


def _shift(l: int, d: int, t: Term) -> Optional[Term]:
    """``t`` with ``d`` added to every reference at depth ``l`` or deeper;
    ``t`` itself when no reference moves, and ``None`` when ``d`` is
    negative and ``t`` has a reference in the band ``l <= i < l - d``."""

    cls = type(t)
    if cls is Bind or cls is Flat:
        _, kind, side, body = t
        side2 = _shift(l, d, side)
        if side2 is None:
            return None
        body2 = _shift(l + 1 if cls is Bind else l, d, body)
        if body2 is None:
            return None
        if side2 is side and body2 is body:
            return t
        return cls(kind, side2, body2)
    if cls is Var:
        _, i = t
        if i < l or d == 0:
            return t
        return None if i < l - d else Var(i + d)
    if cls is Sort:
        return t
    raise TypeError(f"not a term: {t!r}")


def lift(l: int, m: int, t: Term) -> Term:
    """``t`` with every reference at depth ``l`` or deeper raised by ``m``;
    ``t`` itself when no reference moves."""

    _naturals(l, m)
    return _shift(l, m, t)


def delift(l: int, m: int, t: Term) -> Optional[Term]:
    """The unique ``u`` with ``lift(l, m, u) == t``, or ``None``.

    Undefined exactly when ``t`` has a reference in the band
    ``l <= i < l + m``.  ``t`` itself when no reference moves.
    """

    _naturals(l, m)
    return _shift(l, -m, t)


def liftv(l: int, m: int, ts: tuple[Term, ...]) -> tuple[Term, ...]:
    """Relocate a vector of terms at the same level and height."""

    return tuple(lift(l, m, t) for t in ts)


def lifts(pairs: Iterable[RelocPair], t: Term) -> Term:
    """Apply a list of relocation pairs left to right."""

    for l, m in pairs:
        t = lift(l, m, t)
    return t


def drop(l: int, m: int, env: Env) -> Optional[Env]:
    """Remove the ``m`` entries at depth ``l``; ``None`` when impossible.

    The entries above the removed band stay as they are (the caller reads
    them at the same depths), while each of the ``l`` entries kept below it
    gets delifted, which fails when such an entry refers into the band.
    """

    _naturals(l, m)
    if m and len(env) < l + m:
        return None
    kept = []
    for i, (kind, side) in enumerate(env[:l]):
        side2 = delift(l - 1 - i, m, side)
        if side2 is None:
            return None
        kept.append((kind, side2))
    return tuple(kept) + env[l + m :]


def drops(pairs: Iterable[RelocPair], env: Env) -> Optional[Env]:
    """Apply a list of drops left to right; ``None`` if any step fails."""

    out: Optional[Env] = env
    for l, m in pairs:
        if out is None:
            return None
        out = drop(l, m, out)
    return out


def lreq(l: int, m: int, env1: Env, env2: Env) -> bool:
    """Equal length and identical entries at depths ``l <= i < l + m``."""

    _naturals(l, m)
    if len(env1) != len(env2):
        return False
    hi = min(l + m, len(env1))
    return env1[l:hi] == env2[l:hi]
