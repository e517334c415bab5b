"""The independent normalizer: a textbook statement of beta in de Bruijn
notation (de Bruijn, "Lambda calculus notation with nameless dummies",
1972).

It erases each cast, substitutes each abbreviation, and beta-normalizes
in normal order under a step cap.  It shares no code with
``lamcalc.reduction``, whose ``normalize`` and ``conv`` it checks: a
normal form of the calculus has no cast and no abbreviation, so the two
agree wherever both finish.  Its terms are plain tuples: ``("s", k)``,
``("v", i)``, ``("lam", domain, body)`` and ``("app", function, argument)``.
"""

from __future__ import annotations

from lamcalc import Bind, BindKind, Flat, FlatKind, Sort, Var, abst, appl


def wrap(env, t):
    """The term ``t`` under one binder per entry of ``env``, entry 0 the
    innermost, so that ``wrap(env, t)`` in ``()`` reads as ``t`` in ``env``."""

    for kind, side in env:
        t = Bind(kind, side, t)
    return t


def erase(t):
    """The textbook term: casts dropped, abbreviations substituted."""

    match t:
        case Sort(k):
            return ("s", k)
        case Var(i):
            return ("v", i)
        case Flat(FlatKind.CAST, _, body):
            return erase(body)
        case Flat(FlatKind.APPL, arg, fun):
            return ("app", erase(fun), erase(arg))
        case Bind(BindKind.ABBR, value, body):
            return instantiate(erase(body), erase(value))
        case Bind(BindKind.ABST, domain, body):
            return ("lam", erase(domain), erase(body))
    raise TypeError(f"not a term: {t!r}")


def shift(t, d, cutoff=0):
    """``t`` with ``d`` added to every reference at ``cutoff`` or deeper."""

    tag = t[0]
    if tag == "v":
        return ("v", t[1] + d) if t[1] >= cutoff else t
    if tag == "lam":
        return ("lam", shift(t[1], d, cutoff), shift(t[2], d, cutoff + 1))
    if tag == "app":
        return ("app", shift(t[1], d, cutoff), shift(t[2], d, cutoff))
    return t


def instantiate(body, arg, j=0):
    """``body`` with reference ``j`` replaced by ``arg`` (shifted under the
    binders passed) and the references above ``j`` lowered by one."""

    tag = body[0]
    if tag == "v":
        i = body[1]
        return shift(arg, j) if i == j else ("v", i - 1) if i > j else body
    if tag == "lam":
        return ("lam", instantiate(body[1], arg, j), instantiate(body[2], arg, j + 1))
    if tag == "app":
        return ("app", instantiate(body[1], arg, j), instantiate(body[2], arg, j))
    return body


def _step(t):
    """One leftmost-outermost beta step, or ``None`` at a normal form."""

    tag = t[0]
    if tag == "app" and t[1][0] == "lam":
        return instantiate(t[1][2], t[2])
    if tag == "app" or tag == "lam":
        left = _step(t[1])
        if left is not None:
            return (tag, left, t[2])
        right = _step(t[2])
        return None if right is None else (tag, t[1], right)
    return None


def normal_form(t, cap=1000):
    """The beta normal form of a lamcalc term, as a lamcalc term, or
    ``None`` when ``cap`` steps do not reach it."""

    t = erase(t)
    for _ in range(cap):
        t2 = _step(t)
        if t2 is None:
            return back(t)
        t = t2
    return None


def back(t):
    tag = t[0]
    if tag == "s":
        return Sort(t[1])
    if tag == "v":
        return Var(t[1])
    if tag == "lam":
        return abst(back(t[1]), back(t[2]))
    return appl(back(t[2]), back(t[1]))
