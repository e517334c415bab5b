from __future__ import annotations

import json
import subprocess
import sys

import pytest

from lamcalc import (
    Bind,
    BindKind,
    BudgetExceeded,
    Flat,
    FlatKind,
    FuelExhausted,
    Sort,
    Var,
    env_push,
    parse_env,
    parse_term,
)
from lamcalc.reduction import (
    conv,
    cpr_full,
    cpr_holds,
    cpr_reducts,
    cprs_holds,
    lpr_holds,
    lpr_reducts,
    lsubr_holds,
    normalize,
)
from lamcalc.relocation import lift
from lamcalc.universe import enumerate_closures, enumerate_terms

DELTA = parse_term("(abst *0 (appl #0 #0))")
OMEGA = parse_term("(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))")
REDUCTUM = parse_term("(abbr (cast *0 (abst *0 (appl #0 #0))) (appl #0 #0))")


def test_cpr_sorts_are_inert():
    for env in [(), parse_env("[def *0]")]:
        assert cpr_reducts(env, Sort(3)) == {Sort(3)}


def test_cpr_worked_example_beta():
    assert REDUCTUM in cpr_reducts((), OMEGA)


def test_cpr_worked_example_back():
    # eps inside delta, then zeta, all in one parallel step
    assert OMEGA in cpr_reducts((), REDUCTUM)


def test_cpr_delta_example():
    assert cpr_reducts(parse_env("[def *0]"), Var(0)) == {Var(0), Sort(0)}


def test_cpr_delta_lifts_definiens():
    env = parse_env("[dec *9; def #0; dec *7]")
    # entry 1 defines #0, which refers to entry 2 from inside; seen from
    # depth 1 the unfolding must be lifted by 2
    assert cpr_reducts(env, Var(1)) == {Var(1), Var(2)}


def test_cpr_zeta_needs_delift():
    # the body must not refer to the dropped definition
    assert cpr_reducts((), parse_term("(abbr *0 #1)")) == {
        parse_term("(abbr *0 #1)"),
        Var(0),
    }
    assert Var(0) not in cpr_reducts((), parse_term("(abbr *0 #0)"))
    assert Sort(0) in cpr_reducts((), parse_term("(abbr *0 #0)"))  # delta+zeta


def test_cpr_theta():
    t = parse_term("(appl #2 (abbr *0 #0))")
    assert parse_term("(abbr *0 (appl #3 #0))") in cpr_reducts((), t)


def test_cpr_eps():
    got = cpr_reducts((), parse_term("(cast *0 *1)"))
    assert got == {parse_term("(cast *0 *1)"), Sort(1)}


def test_lpr_examples():
    assert lpr_reducts(()) == {()}
    assert lpr_reducts(parse_env("[dec *0]")) == {parse_env("[dec *0]")}
    assert lpr_reducts(parse_env("[def (cast *0 *1)]")) == {
        parse_env("[def (cast *0 *1)]"),
        parse_env("[def *1]"),
    }
    assert lpr_holds(parse_env("[def (cast *0 *1)]"), parse_env("[def *1]"))


def test_lpr_entry_reduces_in_outer_env():
    env = parse_env("[def *0; def #0]")  # inner entry #0 refers to the def *0
    assert parse_env("[def *0; def *0]") in lpr_reducts(env)


def test_cpr_full_examples():
    assert cpr_full((), Sort(4)) == Sort(4)
    assert cpr_full((), OMEGA) == REDUCTUM
    assert cpr_full(parse_env("[def *0]"), Var(0)) == Sort(0)
    # a non-term is refused by the development and the enumeration alike,
    # and the refusal is not remembered as an answer
    for _ in range(2):
        for reduce in (cpr_full, cpr_reducts):
            with pytest.raises(TypeError, match="not a term"):
                reduce((), ("x",))


def test_cpr_full_is_a_reduct():
    for env, t in enumerate_closures(3, 1, 1):
        assert cpr_full(env, t) in cpr_reducts(env, t)


def test_deep_terms_reduce_at_the_default_recursion_limit():
    """Nested chains somewhat below the deepest each judgment handles
    (498 casts to normalize, 166 identities, 331 casts to enumerate, about
    995 casts to the arity, the degree, the static type and the step
    matcher) go through in a fresh process at the default limit: a rewrite
    that adds stack frames per nesting level fails here."""

    probe = """
import json, sys
from lamcalc import Params, Sort, Var, aaa, abst, appl, cast, cpx_holds, da, lstas
from lamcalc.reduction import cpr_reducts, normalize
def chain(n, wrap):
    t = Sort(0)
    for _ in range(n):
        t = wrap(t)
    return t
def casts(n):
    return chain(n, lambda t: cast(Sort(1), t))
ids = chain(150, lambda t: appl(t, abst(Sort(1), Var(0))))
print(json.dumps([
    sys.getrecursionlimit(),
    normalize((), casts(450)) == Sort(0),
    normalize((), ids) == Sort(0),
    len(cpr_reducts((), casts(300))),
    str(aaa((), casts(900))),
    da(Params(), (), casts(900)),
    lstas(Params(), (), casts(900), 1) == Sort(1),
    cpx_holds(Params(), (), casts(900), Sort(0)),
]))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [1000, True, True, 301, "*", 2, True, True]


def test_deep_terms_reduce_in_an_environment_at_the_default_recursion_limit():
    """The chains above in the one-entry environment ``[def *0]``, ending
    in ``#0``, which reads the entry, or in ``#1``, which lies past it and
    so is judged as in ``()``: the same limits hold."""

    probe = """
import json, sys
from lamcalc import Params, Sort, Var, aaa, abst, appl, cast, cpx_holds, da, lstas
from lamcalc import parse_env, print_term
from lamcalc.reduction import cpr_reducts, normalize
P = Params()
def chain(n, wrap, t):
    for _ in range(n):
        t = wrap(t)
    return t
def casts(n, base):
    return chain(n, lambda t: cast(Sort(1), t), base)
env = parse_env("[def *0]")
out = [sys.getrecursionlimit()]
for base in (Var(0), Var(1)):
    ids = chain(150, lambda t: appl(t, abst(Sort(1), Var(0))), base)
    lstas1 = lstas(P, env, casts(900, base), 1)
    out += [
        print_term(normalize(env, casts(450, base))),
        print_term(normalize(env, ids)),
        len(cpr_reducts(env, casts(300, base))),
        str(aaa(env, casts(900, base))),
        da(P, env, casts(900, base)),
        lstas1 and print_term(lstas1),
        cpx_holds(P, env, casts(900, base), Sort(0)),
        cpx_holds(P, env, casts(900, base), base),
    ]
print(json.dumps(out))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [
        1000,
        *["*0", "*0", 602, "*", 2, "*1", True, True],
        *["#1", "#1", 301, "None", None, None, False, True],
    ]


def test_normalize():
    assert normalize((), Sort(0), 1) == Sort(0)
    assert normalize((), parse_term("(cast *0 *1)"), 10) == Sort(1)
    with pytest.raises(FuelExhausted):
        normalize((), OMEGA, 100)


def test_cprs():
    assert cprs_holds((), Sort(0), Sort(0), 1)
    assert cprs_holds((), OMEGA, OMEGA, 16)
    assert cprs_holds((), OMEGA, REDUCTUM, 16)
    assert cprs_holds((), REDUCTUM, OMEGA, 16)
    assert not cprs_holds((), Sort(0), Sort(1), 16)
    # a target one step away is found at any budget; a search past the
    # budget raises
    assert cprs_holds((), OMEGA, REDUCTUM, 1)
    with pytest.raises(BudgetExceeded, match="more than 1 reachable nodes"):
        cprs_holds((), parse_term("(cast *0 *1)"), Sort(0), 1)


def test_conv():
    assert conv((), Var(3), Var(3))
    assert conv((), parse_term("(cast *0 *1)"), Sort(1))
    assert not conv((), Sort(0), Sort(1))


# Bounded zig-zag oracle: T1 and T2 convert iff they are connected in the
# symmetric closure of the one-step relation, searched inside the forward
# reach of both sides.


def _reach(env, t, depth):
    seen, frontier = {t}, {t}
    for _ in range(depth):
        frontier = {r for x in frontier for r in cpr_reducts(env, x)} - seen
        seen |= frontier
    return seen


def _zigzag(env, t1, t2, depth=3):
    nodes = _reach(env, t1, depth) | _reach(env, t2, depth)
    neighbours = {n: set() for n in nodes}
    for n in nodes:
        for r in cpr_reducts(env, n):
            if r in neighbours and r != n:
                neighbours[n].add(r)
                neighbours[r].add(n)
    seen, stack = {t1}, [t1]
    while stack:
        n = stack.pop()
        if n == t2:
            return True
        for r in neighbours[n]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return t1 == t2


def test_conv_against_zigzag_oracle():
    envs = [(), parse_env("[def *0]"), parse_env("[dec *1]")]
    terms = enumerate_terms(3, 1, 1)[:18]
    for env in envs:
        for t1 in terms:
            for t2 in terms:
                assert conv(env, t1, t2, 50) == _zigzag(env, t1, t2)


def test_lsubr():
    assert lsubr_holds(parse_env("[dec *0; def #1]"), ())
    assert lsubr_holds((), ())
    assert lsubr_holds(parse_env("[def (cast *0 *1)]"), parse_env("[dec *0]"))
    assert not lsubr_holds(parse_env("[dec *0]"), parse_env("[dec *1]"))
    assert not lsubr_holds((), parse_env("[dec *0]"))
    # annotation must match the declared type
    assert not lsubr_holds(parse_env("[def (cast *1 *0)]"), parse_env("[dec *0]"))


def _lsubr_pool():
    sides = [
        Sort(0),
        Sort(1),
        Var(0),
        parse_term("(cast *0 *1)"),
        parse_term("(cast *1 *0)"),
    ]
    entries = [(kind, t) for kind in BindKind for t in sides]
    pool = [()]
    pool += [(e,) for e in entries]
    pool += [(e1, e2) for e1 in entries for e2 in entries]
    return pool


def test_lsubr_trans():
    pool = _lsubr_pool()
    rel = {(a, b) for a in pool for b in pool if lsubr_holds(a, b)}
    for a, b in rel:
        for c in pool:
            if (b, c) in rel:
                assert (a, c) in rel


def test_lsubr_cpr_trans():
    pool = _lsubr_pool()
    rel = [(a, b) for a in pool for b in pool if a != b and lsubr_holds(a, b)]
    terms = enumerate_terms(3, 1, 2)
    for a, b in rel:
        for t in terms:
            assert cpr_reducts(b, t) <= cpr_reducts(a, t)


# ------------------------------------------------------- generic properties


def test_cpr_reflexive():
    for env, t in enumerate_closures(3, 1, 1):
        assert t in cpr_reducts(env, t)


def test_cpr_no_one_step_cycles():
    for env, t in enumerate_closures(3, 1, 1):
        for r in cpr_reducts(env, t):
            if r != t:
                assert not cpr_holds(env, r, t)


def test_cpr_diamond_smoke():
    for env, t in enumerate_closures(3, 1, 1):
        reducts = cpr_reducts(env, t)
        for t1 in reducts:
            for t2 in reducts:
                assert cpr_reducts(env, t1) & cpr_reducts(env, t2)


# Substitution-only oracle: the fragment with just the structural rules and
# delta must stay inside the full relation.


def _subst_reducts(env, term):
    out = {term}
    match term:
        case Var(i) if i < len(env) and env[i][0] == BindKind.ABBR:
            for v2 in _subst_reducts(env[i + 1 :], env[i][1]):
                out.add(lift(0, i + 1, v2))
        case Bind(kind, side, body):
            for s2 in _subst_reducts(env, side):
                for b2 in _subst_reducts(env_push(env, kind, side), body):
                    out.add(Bind(kind, s2, b2))
        case Flat(kind, side, body):
            for s2 in _subst_reducts(env, side):
                for b2 in _subst_reducts(env, body):
                    out.add(Flat(kind, s2, b2))
    return out


def test_substitution_subsystem_contained_in_cpr():
    for env, t in enumerate_closures(3, 1, 1):
        assert _subst_reducts(env, t) <= cpr_reducts(env, t)
