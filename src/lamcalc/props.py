"""Exhaustive property suites over a bounded universe of closures.

Each suite sweeps :func:`lamcalc.universe.enumerate_closures` at the given
bounds and returns the counterexamples it finds, printed verbatim and
sorted, so a run is reproducible and an empty list certifies the sweep.
The suites restate, at desk scale, the structural laws the calculus is
designed around: confluence of reduction, preservation of arities and of
validity, termination of the extended and closure-level relations, the
lazy-equivalence laws, and the static-type laws.
"""

from __future__ import annotations

from typing import Callable

from .arity import aaa
from .bigtree import fsb_certify
from .errors import BudgetExceeded, FuelExhausted
from .extended import (
    cpx_reducts,
    csx_certify,
    lleq_holds,
    llor,
    lpx_reducts,
)
from .reduction import cpr_reducts
from .sexpr import print_env, print_term
from .statics import da, lstas
from .terms import Bind, Env, Flat, Params, Sort, Term, Var, env_push
from .traversal import Cycle
from .universe import enumerate_closures, term_key
from .validity import preservation_report, snv_check

__all__ = ["SUITES", "run_suite"]


def _spot(env: Env, term: Term) -> str:
    return f"{print_env(env)} |- {print_term(term)}"


def suite_diamond(params: Params, size: int, envlen: int, maxsort: int) -> list[str]:
    """Any two one-step reducts of a term have a common reduct."""

    bad = []
    for env, t0 in enumerate_closures(size, envlen, maxsort):
        reducts = sorted(cpr_reducts(env, t0, params.budget), key=term_key)
        for i, t1 in enumerate(reducts):
            r1 = cpr_reducts(env, t1, params.budget)
            for t2 in reducts[i + 1 :]:
                if not r1 & cpr_reducts(env, t2, params.budget):
                    bad.append(
                        f"{_spot(env, t0)}: {print_term(t1)} and "
                        f"{print_term(t2)} do not rejoin"
                    )
    return sorted(bad)


def suite_church_rosser(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Any two terms two steps apart rejoin within two further steps."""

    bad = []
    for env, t0 in enumerate_closures(size, envlen, maxsort):
        two = {
            u
            for t1 in cpr_reducts(env, t0, params.budget)
            for u in cpr_reducts(env, t1, params.budget)
        }
        reach: dict[Term, frozenset[Term]] = {}
        for u in two:
            reach[u] = frozenset(
                w
                for v in cpr_reducts(env, u, params.budget)
                for w in cpr_reducts(env, v, params.budget)
            )
        ordered = sorted(two, key=term_key)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                if not reach[u] & reach[v]:
                    bad.append(
                        f"{_spot(env, t0)}: {print_term(u)} and "
                        f"{print_term(v)} do not rejoin in two steps"
                    )
    return sorted(bad)


def suite_arity_preservation(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Extended reduction never changes a term's atomic arity."""

    bad = []
    for env, t in enumerate_closures(size, envlen, maxsort):
        a = aaa(env, t)
        if a is None:
            continue
        for t2 in cpx_reducts(params, env, t):
            if aaa(env, t2) != a:
                bad.append(
                    f"{_spot(env, t)}: arity {a} became "
                    f"{aaa(env, t2)} at {print_term(t2)}"
                )
    return sorted(bad)


def _suite_certify(
    certify: Callable[[Params, Env, Term], object],
    params: Params,
    size: int,
    envlen: int,
    maxsort: int,
) -> list[str]:
    """Every closure with an atomic arity gets a certificate, not a cycle
    or a spent budget, from ``certify``."""

    bad = []
    for env, t in enumerate_closures(size, envlen, maxsort):
        if aaa(env, t) is None:
            continue
        try:
            got = certify(params, env, t)
        except BudgetExceeded as e:
            bad.append(f"{_spot(env, t)}: budget exhausted ({e})")
            continue
        if isinstance(got, Cycle):
            bad.append(f"{_spot(env, t)}: cycle of length {len(got.path)}")
    return sorted(bad)


def suite_sn_extended(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Every term with an atomic arity strongly normalizes under extended
    reduction."""

    return _suite_certify(csx_certify, params, size, envlen, maxsort)


def suite_very_big_tree(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Every closure with an atomic arity admits no infinite chain of
    subclosure, term-reduction and observed environment-reduction steps."""

    return _suite_certify(fsb_certify, params, size, envlen, maxsort)


def suite_subject_reduction(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Validity survives one and two reduction steps, and the preservation
    report passes on every valid closure."""

    bad = []
    for env, t in enumerate_closures(size, envlen, maxsort):
        if not snv_check(params, env, t).valid:
            continue
        report = preservation_report(params, env, t)
        if not report.all_pass:
            for line in report.failures:
                bad.append(f"{_spot(env, t)}: {line}")
        for t2 in cpr_reducts(env, t, params.budget):
            for t3 in cpr_reducts(env, t2, params.budget):
                if not snv_check(params, env, t3).valid:
                    bad.append(
                        f"{_spot(env, t)}: two-step reduct "
                        f"{print_term(t3)} is not valid"
                    )
    return sorted(bad)


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


def suite_lleq_laws(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Lazy-equivalence laws: the quantifier characterization agrees with
    the recursive rules, equivalence transfers reduction steps between
    environments and is stable under them, and the pointwise union is
    total on equal lengths."""

    bad = []
    by_len: dict[int, dict[Env, None]] = {}  # each length's environments
    probes = [Sort(0), Var(0), Var(1)]

    for env, t in enumerate_closures(size, envlen, maxsort):
        by_len.setdefault(len(env), {})[env] = None
        here = cpx_reducts(params, env, t)
        for env2 in lpx_reducts(params, env):
            equivalent = lleq_holds(0, t, env, env2)
            for l, got in ((0, equivalent), (1, lleq_holds(1, t, env, env2))):
                if got != _lleq_recursive(l, t, env, env2):
                    bad.append(
                        f"{_spot(env, t)}: characterizations disagree at "
                        f"level {l} against {print_env(env2)}"
                    )
            if equivalent:
                # a step over the equivalent environment is a step here
                for t2 in cpx_reducts(params, env2, t) - here:
                    bad.append(
                        f"{_spot(env, t)}: step to {print_term(t2)} "
                        f"does not transfer from {print_env(env2)}"
                    )
                # and stepping the term preserves the equivalence
                for t2 in here:
                    if not lleq_holds(0, t2, env, env2):
                        bad.append(
                            f"{_spot(env, t)}: equivalence with "
                            f"{print_env(env2)} lost at {print_term(t2)}"
                        )

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


def suite_statics_laws(
    params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Static-type laws: iterating at least once never returns the input,
    and a degree ``d`` guarantees ``n``-iterated types of degree ``d - n``
    for every ``n`` up to ``d``."""

    bad = []
    for env, t in enumerate_closures(size, envlen, maxsort):
        for n in (1, 2, 3):
            u = lstas(params, env, t, n)
            if u is not None and u == t:
                bad.append(f"{_spot(env, t)}: fixed under {n} static steps")
        d = da(params, env, t)
        if d is None:
            continue
        for n in range(d + 1):
            u = lstas(params, env, t, n)
            if u is None:
                bad.append(f"{_spot(env, t)}: degree {d} but no type at {n}")
            elif da(params, env, u) != d - n:
                bad.append(
                    f"{_spot(env, t)}: type at {n} has degree "
                    f"{da(params, env, u)}, expected {d - n}"
                )
    return sorted(bad)


SUITES: dict[str, Callable[[Params, int, int, int], list[str]]] = {
    "diamond": suite_diamond,
    "church-rosser": suite_church_rosser,
    "arity-preservation": suite_arity_preservation,
    "sn-extended": suite_sn_extended,
    "very-big-tree": suite_very_big_tree,
    "subject-reduction": suite_subject_reduction,
    "lleq-laws": suite_lleq_laws,
    "statics-laws": suite_statics_laws,
}


def run_suite(
    name: str, params: Params, size: int, envlen: int, maxsort: int
) -> list[str]:
    """Run one suite by name; unknown names raise ``KeyError``."""

    return SUITES[name](params, size, envlen, maxsort)
