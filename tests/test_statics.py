from __future__ import annotations

import pytest

from lamcalc import BindKind, Params, Sort, Var, clear_caches, parse_env, parse_term
from lamcalc.arity import aaa
from lamcalc.reduction import cpr_reducts
from lamcalc.statics import da, lsubd_holds, lstas
from lamcalc.universe import enumerate_closures

P = Params()


def test_lstas_sort():
    assert lstas(P, (), Sort(0), 2) == Sort(2)
    assert lstas(P, (), Sort(3), 0) == Sort(3)
    assert lstas(Params(c=3), (), Sort(1), 2) == Sort(7)


def test_lstas_rejects_negative_iterations():
    # a negative count used to give Sort(-1), a term no parser accepts
    for term in (Sort(0), Var(0), parse_term("(abst *0 #0)")):
        with pytest.raises(ValueError):
            lstas(P, (), term, -1)


def test_lstas_declared_variable():
    env = parse_env("[dec (cast *1 *2)]")
    assert lstas(P, env, Var(0), 0) == Var(0)
    assert lstas(P, env, Var(0), 1) == Sort(2)
    assert lstas(P, env, Var(0), 2) == Sort(3)


def test_lstas_dangling():
    assert lstas(P, (), Var(0), 0) is None
    assert lstas(P, (), Var(0), 3) is None


def test_lstas_defined_variable_lifts():
    # the definiens' static type is relocated past the entries above it
    env = parse_env("[dec *0; def #0]")
    assert lstas(P, env, Var(0), 0) == Var(1)
    assert lstas(P, env, Var(0), 1) == Sort(0)
    assert lstas(P, env, Var(0), 2) == Sort(1)


def test_lstas_structural():
    env = parse_env("[dec *0]")
    assert lstas(P, env, parse_term("(abst *0 #0)"), 1) == parse_term("(abst *0 *0)")
    assert lstas(P, env, parse_term("(abst *0 #0)"), 2) == parse_term("(abst *0 *1)")
    assert lstas(P, env, parse_term("(appl #0 (abst *0 #0))"), 1) == parse_term(
        "(appl #0 (abst *0 *0))"
    )
    assert lstas(P, env, parse_term("(cast *1 #0)"), 1) == Sort(0)
    assert lstas(P, (), parse_term("(abbr *0 #0)"), 1) == parse_term("(abbr *0 *1)")


def test_lstas_zero_requires_resolvable_type():
    # the declared type must itself have a static type
    assert lstas(P, parse_env("[dec #5]"), Var(0), 0) is None


def test_da_examples():
    assert da(P, (), Sort(0)) == 2
    assert da(P, parse_env("[dec *0]"), Var(0)) == 3
    assert da(P, (), Var(0)) is None
    assert da(P, (), Sort(5)) == 0
    assert da(Params(big_d=0), (), Sort(0)) == 0


def test_da_structural():
    assert da(P, parse_env("[def *1]"), Var(0)) == 1
    assert da(P, (), parse_term("(abst *0 #0)")) == 3
    assert da(P, (), parse_term("(cast *0 *1)")) == 1
    # degree follows the body of a flat item; the argument is not consulted
    assert da(P, (), parse_term("(appl #3 *1)")) == 1
    assert da(P, (), parse_term("(appl *1 #3)")) is None


def test_lsubd_examples():
    assert lsubd_holds(P, (), ())
    assert not lsubd_holds(P, parse_env("[dec *0]"), ())
    assert not lsubd_holds(P, (), parse_env("[dec *0]"))
    assert lsubd_holds(P, parse_env("[def (cast *1 *0)]"), parse_env("[dec *1]"))
    assert lsubd_holds(P, parse_env("[dec *0]"), parse_env("[dec *0]"))
    # degree side condition: da(*1)=1 but da(*0)=2 != 1+1 fails on the flip
    assert not lsubd_holds(P, parse_env("[def (cast *0 *1)]"), parse_env("[dec *0]"))


def test_lstas0_defined_iff_da_defined():
    """The validity checker takes static types wherever it has a degree,
    and a degree wherever it has an arity."""

    for env, t in enumerate_closures(3, 1, 1):
        no_degree = da(P, env, t) is None
        for n in range(4):
            assert (lstas(P, env, t, n) is None) == no_degree
        if aaa(env, t) is not None:
            assert not no_degree


def test_da_lstas_chain():
    # degree d: the n-iterated static type exists with degree d-n, clipped
    # at zero; checked past d to probe the truncated reading
    for env, t in enumerate_closures(3, 1, 1):
        d = da(P, env, t)
        if d is None:
            continue
        for n in range(d + 3):
            u = lstas(P, env, t, n)
            assert u is not None
            assert da(P, env, u) == max(d - n, 0)


@pytest.mark.parametrize(
    "judge",
    [lambda env, t: da(P, env, t), lambda env, t: lstas(P, env, t, 1)],
    ids=["da", "lstas"],
)
def test_a_look_alike_entry_is_refused_cold_and_warm(judge):
    """An entry whose side is a plain tuple equal to ``*0`` is refused from
    empty memo tables, and again after the same judgment on the real
    ``*0``: no answer for an equal environment is given to it."""

    look_alike = ((BindKind.ABBR, (0, 0)),)
    real = ((BindKind.ABBR, Sort(0)),)
    assert look_alike == real
    clear_caches()
    with pytest.raises(TypeError, match="not a term"):
        judge(look_alike, Var(0))
    assert judge(real, Var(0)) is not None
    with pytest.raises(TypeError, match="not a term"):
        judge(look_alike, Var(0))


def test_lstas_irreflexive_at_positive_iterations():
    for env, t in enumerate_closures(3, 1, 1):
        for n in (1, 2, 3):
            u = lstas(P, env, t, n)
            if u is not None:
                assert u != t


def test_lstas0_is_a_reduct():
    for env, t in enumerate_closures(3, 1, 1):
        u = lstas(P, env, t, 0)
        if u is not None:
            assert u in cpr_reducts(env, t)


def _lsubd_pool():
    sides = [Sort(0), Sort(1), Var(0), parse_term("(cast *1 *0)"), parse_term("(cast *2 *1)")]
    entries = [(kind, t) for kind in BindKind for t in sides]
    pool = [()]
    pool += [(e,) for e in entries]
    pool += [(e1, e2) for e1 in entries for e2 in entries]
    return pool


def test_lsubd_trans():
    pool = _lsubd_pool()
    rel = {(a, b) for a in pool for b in pool if lsubd_holds(P, a, b)}
    for a, b in rel:
        for c in pool:
            if (b, c) in rel:
                assert (a, c) in rel


def test_lsubd_da_trans_and_conf():
    from lamcalc.universe import enumerate_terms

    pool = _lsubd_pool()
    rel = [(a, b) for a in pool for b in pool if a != b and lsubd_holds(P, a, b)]
    terms = enumerate_terms(3, 1, 2)
    for a, b in rel:
        for t in terms:
            d = da(P, b, t)
            if d is not None:
                assert da(P, a, t) == d
            d = da(P, a, t)
            if d is not None:
                assert da(P, b, t) == d
