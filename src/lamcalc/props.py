"""Exhaustive property suites over a bounded universe of closures.

Each suite states a law over one closure, which yields the counterexamples
it finds there.  The laws are swept by one loop, :func:`_sweep`, over
:func:`lamcalc.universe.enumerate_closures` at the given bounds; it prints
each counterexample after its closure and returns them sorted, so a run
is reproducible and an empty list certifies the sweep.  The laws restate,
at desk scale, the structural laws the calculus is designed around:
confluence of reduction, preservation of arities and of validity,
termination of the extended and closure-level relations, the
lazy-equivalence laws, and the static-type laws.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

from .arity import aaa
from .bigtree import fsb_certify
from .errors import BudgetExceeded
from .extended import (
    cpx_reducts,
    csx_certify,
    lleq_holds,
    llor,
    lpx_reducts,
)
from .reduction import cpr_reducts
from .sexpr import print_closure, print_env, print_term
from .statics import da, lstas
from .terms import Bind, Env, Flat, Params, Sort, Term, Var, env_push
from .traversal import Cycle
from .universe import enumerate_closures
from .validity import preservation_report, snv_check

__all__ = ["SUITES", "run_suite"]

# A law over one closure: it yields each counterexample found there.
Law = Callable[[Params, Env, Term], Iterator[str]]


def _sweep(law: Law, params: Params, size: int, envlen: int, maxsort: int) -> list[str]:
    """The counterexamples ``law`` finds at each closure within the bounds,
    each after ``"<env> |- <term>: "``, sorted."""

    return sorted(
        f"{print_closure(env, t)}: {line}"
        for env, t in enumerate_closures(size, envlen, maxsort)
        for line in law(params, env, t)
    )


def _one_step(params: Params, env: Env, t: Term) -> frozenset[Term]:
    """The terms one parallel step from ``t``."""

    return cpr_reducts(env, t, params.budget)


def _two_steps(params: Params, env: Env, t: Term) -> frozenset[Term]:
    """The terms two parallel steps from ``t``."""

    return frozenset(
        w
        for v in cpr_reducts(env, t, params.budget)
        for w in cpr_reducts(env, v, params.budget)
    )


def _rejoin(
    step: Callable[[Params, Env, Term], frozenset[Term]],
    suffix: str,
    params: Params,
    env: Env,
    t0: Term,
) -> Iterator[str]:
    """Any two ``step``-reducts of a term have a common ``step``-reduct:
    the diamond for one parallel step, Church-Rosser for two."""

    reducts = sorted(step(params, env, t0))
    reach = {u: step(params, env, u) for u in reducts}
    for i, u in enumerate(reducts):
        for v in reducts[i + 1 :]:
            if not reach[u] & reach[v]:
                yield f"{print_term(u)} and {print_term(v)} do not rejoin{suffix}"


def _arity_preserved(params: Params, env: Env, t: Term) -> Iterator[str]:
    """Extended reduction never changes a term's atomic arity."""

    a = aaa(env, t)
    if a is None:
        return
    for t2 in cpx_reducts(params, env, t):
        if aaa(env, t2) != a:
            yield f"arity {a} became {aaa(env, t2)} at {print_term(t2)}"


def _certified(
    certify: Callable[[Params, Env, Term], object],
    params: Params,
    env: Env,
    t: Term,
) -> Iterator[str]:
    """A closure with an atomic arity gets a certificate, not a cycle or a
    spent budget, from ``certify``: under extended reduction for
    ``csx_certify``, and for the chains of subclosure, term-reduction and
    observed environment-reduction steps for ``fsb_certify``."""

    if aaa(env, t) is None:
        return
    try:
        got = certify(params, env, t)
    except BudgetExceeded as e:
        yield f"budget exhausted ({e})"
        return
    if isinstance(got, Cycle):
        yield f"cycle of length {len(got.path)}"


def _subject_reduction(params: Params, env: Env, t: Term) -> Iterator[str]:
    """Validity survives one and two reduction steps, and the preservation
    report passes on every valid closure."""

    if not snv_check(params, env, t).valid:
        return
    report = preservation_report(params, env, t)
    if not report.all_pass:
        yield from report.failures
    for t3 in _two_steps(params, env, t):
        if not snv_check(params, env, t3).valid:
            yield f"two-step reduct {print_term(t3)} is not valid"


def _lleq_recursive(l: int, term: Term, env1: Env, env2: Env) -> bool:
    """Lazy equivalence by its recursive rules — the cross-check for the
    quantifier characterization used by ``lleq_holds``."""

    if len(env1) != len(env2):
        return False
    match term:
        case Sort(_):
            return True
        case Var(i):
            if i < l or i >= len(env1):
                return True
            if env1[i] != env2[i]:
                return False
            _, side = env1[i]
            return _lleq_recursive(0, side, env1[i + 1 :], env2[i + 1 :])
        case Bind(kind, side, body):
            return _lleq_recursive(l, side, env1, env2) and _lleq_recursive(
                l + 1,
                body,
                env_push(env1, kind, side),
                env_push(env2, kind, side),
            )
        case Flat(_, side, body):
            return _lleq_recursive(l, side, env1, env2) and _lleq_recursive(
                l, body, env1, env2
            )
    raise TypeError(f"not a term: {term!r}")


def _lleq(params: Params, env: Env, t: Term) -> Iterator[str]:
    """The quantifier characterization of lazy equivalence agrees with the
    recursive rules, and equivalence transfers reduction steps between
    environments and is stable under them."""

    here = cpx_reducts(params, env, t)
    for env2 in lpx_reducts(params, env):
        equivalent = lleq_holds(0, t, env, env2)
        for l, got in ((0, equivalent), (1, lleq_holds(1, t, env, env2))):
            if got != _lleq_recursive(l, t, env, env2):
                yield (
                    f"characterizations disagree at level {l} against "
                    f"{print_env(env2)}"
                )
        if equivalent:
            # a step over the equivalent environment is a step here
            for t2 in cpx_reducts(params, env2, t) - here:
                yield (
                    f"step to {print_term(t2)} does not transfer from "
                    f"{print_env(env2)}"
                )
            # and stepping the term preserves the equivalence
            for t2 in here:
                if not lleq_holds(0, t2, env, env2):
                    yield (
                        f"equivalence with {print_env(env2)} lost at "
                        f"{print_term(t2)}"
                    )


def _lleq_laws(params: Params, size: int, envlen: int, maxsort: int) -> list[str]:
    """The laws of :func:`_lleq`, and the pointwise union is total on
    environments of equal length."""

    bad = _sweep(_lleq, params, size, envlen, maxsort)
    by_len: dict[int, dict[Env, None]] = {}  # each length's environments
    for env, _ in enumerate_closures(size, envlen, maxsort):
        by_len.setdefault(len(env), {})[env] = None
    probes = [Sort(0), Var(0), Var(1)]
    for group in by_len.values():
        for e1 in group:
            for e2 in group:
                for t in probes:
                    if llor(0, t, e1, e2) is None:
                        bad.append(
                            f"pointwise union undefined: {print_env(e1)} "
                            f"with {print_env(e2)} at {print_term(t)}"
                        )
    return sorted(bad)


def _statics(params: Params, env: Env, t: Term) -> Iterator[str]:
    """Iterating the static type at least once never returns the input,
    and a degree ``d`` guarantees ``n``-iterated types of degree ``d - n``
    for every ``n`` up to ``d``."""

    for n in (1, 2, 3):
        u = lstas(params, env, t, n)
        if u is not None and u == t:
            yield f"fixed under {n} static steps"
    d = da(params, env, t)
    if d is None:
        return
    for n in range(d + 1):
        u = lstas(params, env, t, n)
        if u is None:
            yield f"degree {d} but no type at {n}"
        elif da(params, env, u) != d - n:
            yield f"type at {n} has degree {da(params, env, u)}, expected {d - n}"


SUITES: dict[str, Callable[[Params, int, int, int], list[str]]] = {
    "diamond": partial(_sweep, partial(_rejoin, _one_step, "")),
    "church-rosser": partial(_sweep, partial(_rejoin, _two_steps, " in two steps")),
    "arity-preservation": partial(_sweep, _arity_preserved),
    # each certifier is looked up when its law runs, so a patched one is used
    "sn-extended": partial(_sweep, lambda p, e, t: _certified(csx_certify, p, e, t)),
    "very-big-tree": partial(_sweep, lambda p, e, t: _certified(fsb_certify, p, e, t)),
    "subject-reduction": partial(_sweep, _subject_reduction),
    "lleq-laws": _lleq_laws,
    "statics-laws": partial(_sweep, _statics),
}


def run_suite(
    name: str, params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Run one suite by name; unknown names raise ``KeyError``."""

    return SUITES[name](params, size, envlen, maxsort)
