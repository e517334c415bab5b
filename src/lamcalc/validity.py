"""Validity: the stratified correctness judgment and its preservation.

A term is valid when every cast's annotation matches the inferred type of
its body and every application's argument matches the domain its function
eventually exposes — "eventually" meaning after iterating the static type
up to the term's degree and computing.  The checker decides this with
normal forms; a bounded search over the literal inference rules serves as
an independent oracle.  `preservation_report` then confirms, reduct by
reduct, that validity, degrees and static types survive reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arity import aaa
from .errors import BudgetExceeded, FuelExhausted
from .reduction import conv, cpr_reducts, cprs_holds, lpr_reducts, lsub_walk, normalize
from .sexpr import print_closure, print_term
from .statics import da, lstas
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
from .universe import env_key

__all__ = [
    "PreservationReport",
    "ValidityReport",
    "lsubsv_holds",
    "preservation_report",
    "scpds_check",
    "scpes_check",
    "shnv_check",
    "snv_check",
    "snv_oracle",
]


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a validity check.

    ``failure`` locates the first offending subterm: a dotted path of
    ``side``/``body`` moves from the root, the rule that rejected it, and
    why.
    """

    valid: bool
    failure: tuple[str, str, str] | None = None

    def __post_init__(self) -> None:
        if self.valid and self.failure is not None:
            raise ValueError("a valid report carries no failure")


_VALID = ValidityReport(True)  # the one report of every valid term


def _covers(params: Params, env: Env, term: Term, n: int) -> bool:
    """Does the degree of ``term`` cover ``n`` static-type steps?"""

    d = da(params, env, term)
    return d is not None and n <= d


def _type_nf(params: Params, env: Env, term: Term, n: int) -> Term:
    """The normal form of the ``n``-th static type of ``term``.  Callers
    test every ``_covers`` first: a static type without a normal form must
    not turn a ``False`` into ``FuelExhausted``."""

    return normalize(env, lstas(params, env, term, n), params.fuel)


def scpds_check(params: Params, env: Env, t1: Term, t2: Term, n: int) -> bool:
    """Does ``t1`` reach ``t2`` by ``n`` static-type steps then computation?

    Requires the degree of ``t1`` to be at least ``n``.  The computation
    half compares normal forms when both sides carry an arity (conversion
    coincides with reachability there); otherwise it falls back to a
    bounded direct search.
    """

    if not _covers(params, env, t1, n):
        return False
    x = lstas(params, env, t1, n)
    if aaa(env, x) is not None and aaa(env, t2) is not None:
        return normalize(env, x, params.fuel) == normalize(env, t2, params.fuel)
    return cprs_holds(env, x, t2, params.budget)


def scpes_check(params: Params, env: Env, t1: Term, n1: int, t2: Term, n2: int) -> bool:
    """Do ``n1`` static-type steps on ``t1`` and ``n2`` on ``t2`` land on
    convertible terms?  Both degrees must cover the requested steps."""

    return (
        _covers(params, env, t1, n1)
        and _covers(params, env, t2, n2)
        and _type_nf(params, env, t1, n1) == _type_nf(params, env, t2, n2)
    )


def _invalid(pos: str, rule: str, reason: str) -> ValidityReport:
    return ValidityReport(False, (pos, rule, reason))


def _at(pos: str, move: str) -> str:
    return f"{pos}.{move}" if pos else move


def snv_check(params: Params, env: Env, term: Term) -> ValidityReport:
    """Decide validity of ``term`` in ``env``.

    Sorts are valid; a reference must point at an entry valid in its own
    environment; a binder needs both parts valid; a cast needs its
    annotation convertible to the inferred type of its body; an
    application needs some iterated static type of the function to be an
    abstraction over exactly the inferred type of the argument.

    Terms without an exact applicability arity are rejected up front:
    validity implies such an arity, and the arity in turn guarantees the
    normalization calls below terminate.  The arity also resolves every
    reference, in every part and every referred entry, so each subterm
    checked has a degree and, for every ``n``, a static type.  Running out
    of normalization fuel is reported as a failure, never raised.  The
    rules that can fail are thus ``arity``, ``resources`` (fuel), ``cast``
    and ``appl``.
    """

    if aaa(env, term) is None:
        return _invalid("", "arity", "no exact applicability arity")
    try:
        return _snv(params, env, term, "", 0)
    except FuelExhausted as e:
        return _invalid("", "resources", f"normalization fuel exhausted: {e}")


def _snv(params: Params, env: Env, term: Term, pos: str, known: int) -> ValidityReport:
    """``snv_check`` on a term whose ``known`` innermost entries are
    binder sides this walk has found valid already.

    A reference to one of them is valid at once, so each entry of a chain
    of definitions is walked once.  Failures stay where they were: the walk
    returns on an invalid side before it pushes it.
    """

    cls = type(term)
    if cls is Bind or cls is Flat:
        _, kind, side, body = term
        got = _snv(params, env, side, _at(pos, "side"), known)
        if not got.valid:
            return got
        if cls is Bind:
            return _snv(params, env_push(env, kind, side), body, _at(pos, "body"),
                        known + 1)
        got = _snv(params, env, body, _at(pos, "body"), known)
        if not got.valid:
            return got
        if kind == FlatKind.CAST:
            if not _covers(params, env, body, 1):
                return _invalid(pos, "cast", "body degree must be at least 1")
            n0 = _type_nf(params, env, side, 0)
            n1 = _type_nf(params, env, body, 1)
            if n0 != n1:
                why = f"annotation {print_term(n0)} differs from inferred"
                return _invalid(pos, "cast", f"{why} {print_term(n1)}")
            return _VALID
        if not _covers(params, env, side, 1):  # an application
            return _invalid(pos, "appl", "argument degree must be at least 1")
        w0 = _type_nf(params, env, side, 1)
        for n in range(da(params, env, body) + 1):
            nf = _type_nf(params, env, body, n)
            if type(nf) is Bind and nf[1] == BindKind.ABST and nf[2] == w0:
                return _VALID
        why = f"no iterated type abstracts over {print_term(w0)}"
        return _invalid(pos, "appl", why)
    if cls is Var:
        _, i = term
        if i < known:
            return _VALID
        return _snv(params, env[i + 1 :], env[i][1], _at(pos, "entry"), 0)
    if cls is Sort:
        return _VALID
    raise TypeError(f"not a term: {term!r}")


def _reach(env: Env, term: Term, depth: int, cap: int) -> frozenset[Term]:
    """Terms reachable from ``term`` by at most ``depth`` parallel steps."""

    seen = {term}
    frontier = [term]
    for _ in range(depth):
        fresh = []
        for t in frontier:
            for r in cpr_reducts(env, t, cap):
                if r not in seen:
                    seen.add(r)
                    if len(seen) > cap:
                        raise BudgetExceeded(f"more than {cap} reachable terms")
                    fresh.append(r)
        if not fresh:
            break
        frontier = fresh
    return frozenset(seen)


def _scpds_targets(
    params: Params, env: Env, term: Term, n: int, budget: int
) -> frozenset[Term]:
    """All witnesses of the guarded static-type-then-compute relation at
    ``n`` whose computation half is at most ``budget`` steps long."""

    d = da(params, env, term)
    if d is None or n > d:
        return frozenset()
    x = lstas(params, env, term, n)
    if x is None:
        return frozenset()
    return _reach(env, x, budget, params.budget)


def snv_oracle(params: Params, env: Env, term: Term, budget: int) -> bool:
    """Bounded derivation search over the literal validity rules.

    Sound and complete for derivations whose every computation segment is
    at most ``budget`` parallel steps long.  Shares no code with
    :func:`snv_check`'s normal-form comparisons, which is the point: the
    two must agree wherever both are applicable.
    """

    match term:
        case Sort(_):
            return True
        case Var(i):
            if i >= len(env):
                return False
            return snv_oracle(params, env[i + 1 :], env[i][1], budget)
        case Bind(kind, side, body):
            return snv_oracle(params, env, side, budget) and snv_oracle(
                params, env_push(env, kind, side), body, budget
            )
        case Flat(FlatKind.CAST, side, body):
            if not snv_oracle(params, env, side, budget):
                return False
            if not snv_oracle(params, env, body, budget):
                return False
            shared = _scpds_targets(params, env, side, 0, budget) & _scpds_targets(
                params, env, body, 1, budget
            )
            return bool(shared)
        case Flat(FlatKind.APPL, side, body):
            if not snv_oracle(params, env, side, budget):
                return False
            if not snv_oracle(params, env, body, budget):
                return False
            domains = _scpds_targets(params, env, side, 1, budget)
            if not domains:
                return False
            d = da(params, env, body)
            if d is None:
                return False
            for n in range(d + 1):
                for target in _scpds_targets(params, env, body, n, budget):
                    match target:
                        case Bind(BindKind.ABST, dom, _) if dom in domains:
                            return True
            return False
    raise TypeError(f"not a term: {term!r}")


def shnv_check(params: Params, env: Env, u: Term, t: Term, d: int) -> bool:
    """Higher validity of the cast of ``t`` by ``u``: both parts valid and,
    for every ``n`` up to ``d``, the annotation after ``n`` static-type
    steps is convertible with the body after ``n + 1``."""

    return (
        snv_check(params, env, u).valid
        and snv_check(params, env, t).valid
        and all(scpes_check(params, env, u, n, t, n + 1) for n in range(d + 1))
    )


def lsubsv_holds(params: Params, env1: Env, env2: Env) -> bool:
    """Does ``env1`` refine ``env2`` for preservation of validity?

    Entrywise equality, except that a definition of a cast value may stand
    in for a declaration of the cast's annotation when the cast is higher
    valid, the annotation is valid and one degree below the value.
    """

    def cast_ok(l1: Env, l2: Env, w: Term, v: Term) -> bool:
        d = da(params, l2, w)
        if d is None or da(params, l1, v) != d + 1:
            return False
        if not shnv_check(params, l1, w, v, d):
            return False
        return snv_check(params, l2, w).valid

    return lsub_walk(env1, env2, cast_ok)


# The report's four flags: each holds when its check found no failure.
_FLAGS = ("degree_preserved", "validity_preserved", "types_valid", "types_commute")


@dataclass(frozen=True)
class PreservationReport:
    """Per-predicate outcome of checking a closure's reducts.

    ``degree_preserved``: every term reduct keeps the degree under every
    environment reduct.  ``validity_preserved``: every such reduct pair
    stays valid.  ``types_valid``: each guarded iterated static type is
    itself valid.  ``types_commute``: taking a static type then reducing
    joins, up to conversion, with reducing then taking the static type.
    ``failures`` holds one line per offending instance.
    """

    degree_preserved: bool
    validity_preserved: bool
    types_valid: bool
    types_commute: bool
    failures: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, f) for f in _FLAGS)


def preservation_report(params: Params, env: Env, term: Term) -> PreservationReport:
    """Check degree, validity and static types across every one-step
    reduct of the term and of the environment.

    Meaningful when the closure is valid; on an invalid closure all four
    checks fail vacuously against the validity premise.  Running out of
    fuel on a commutation instance is recorded as that instance's failure.
    """

    if not snv_check(params, env, term).valid:
        return PreservationReport(
            False, False, False, False, ("the closure itself is not valid",)
        )

    t2s = sorted(cpr_reducts(env, term, params.budget))
    l2s = sorted(lpr_reducts(env, params.budget), key=env_key)
    d = da(params, env, term)
    failed: list[tuple[str, str]] = []  # each failure: the flag it clears, its line

    for t2 in t2s:
        for l2 in l2s:
            if da(params, l2, t2) != d:
                at = print_closure(l2, t2)
                line = f"degree: {at} has degree {da(params, l2, t2)}, expected {d}"
                failed.append(("degree_preserved", line))
            if not snv_check(params, l2, t2).valid:
                line = f"validity: {print_closure(l2, t2)} is not valid"
                failed.append(("validity_preserved", line))

    for n in range(d + 1):
        u1 = lstas(params, env, term, n)
        if not snv_check(params, env, u1).valid:
            line = f"static type: {print_term(u1)} at {n} steps is not valid"
            failed.append(("types_valid", line))
        for t2 in t2s:
            for l2 in l2s:
                try:
                    u2 = lstas(params, l2, t2, n)
                    if u2 is None or not conv(l2, u1, u2, params.fuel):
                        line = (
                            f"commutation: at {n} steps, {print_closure(l2, t2)} "
                            f"yields {'nothing' if u2 is None else print_term(u2)}"
                            f", not convertible with {print_term(u1)}"
                        )
                        failed.append(("types_commute", line))
                except FuelExhausted as e:
                    line = f"resources at {print_closure(l2, t2)}: {e}"
                    failed.append(("types_commute", line))

    flags = {flag for flag, _ in failed}
    return PreservationReport(
        **{f: f not in flags for f in _FLAGS}, failures=tuple(l for _, l in failed)
    )
