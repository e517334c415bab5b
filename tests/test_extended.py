from __future__ import annotations

from functools import lru_cache

import pytest

from graph_oracle import graph_report
from lamcalc import (
    Bind,
    BindKind,
    Flat,
    FlatKind,
    Params,
    Sort,
    Var,
    env_push,
    parse_env,
    parse_term,
    tsts,
)
from lamcalc.arity import aaa
from lamcalc.extended import (
    Cycle,
    SnReport,
    _seq_steps,
    _step_to,
    cnx_holds,
    cpx_holds,
    cpx_reducts,
    csx_certify,
    frees_holds,
    frees_indices,
    lcosx_certify,
    lleq_holds,
    llor,
    lpx_holds,
    lpx_reducts,
    lsx_certify,
)
from lamcalc.reduction import cpr_reducts
from lamcalc.relocation import delift
from lamcalc.statics import da, lstas
from lamcalc.traversal import reach
from lamcalc.universe import enumerate_closures, enumerate_envs, enumerate_terms

P = Params()

OMEGA = parse_term("(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))")
REDUCTUM = parse_term("(abbr (cast *0 (abst *0 (appl #0 #0))) (appl #0 #0))")


def _sn_oracle(root, successors):
    """The graph oracle's report as an ``SnReport`` reads it, without the
    edge count; ``None`` on a cycle."""

    got = graph_report(root, successors, cap=20000)
    if got is None:
        return None
    nodes, _, depth = got
    return nodes, depth


def _csx_oracle(env, term):
    return _sn_oracle(
        term, lambda t: [r for r in cpx_reducts(P, env, t) if r != t]
    )


def _lsx_oracle(l, term, env):
    return _sn_oracle(
        env,
        lambda e1: [
            e2 for e2 in lpx_reducts(P, e1) if not lleq_holds(l, term, e1, e2)
        ],
    )


def test_cpx_sort_rule():
    assert cpx_reducts(P, (), Sort(0)) == {Sort(0), Sort(1)}
    assert cpx_reducts(P, (), Sort(1)) == {Sort(1), Sort(2)}
    assert cpx_reducts(P, (), Sort(2)) == {Sort(2)}  # degree 0 blocks it


def test_cpx_sort_rule_tracks_params():
    wide = Params(c=2, big_d=3)
    assert Sort(2) in cpx_reducts(wide, (), Sort(0))
    assert cpx_reducts(wide, (), Sort(6)) == {Sort(6)}
    # every hierarchy: the static type is the next sort, and the sort
    # steps there exactly while its degree is positive
    for c in range(1, 4):
        for big_d in range(4):
            params = Params(c=c, big_d=big_d)
            for k in range(9):
                up = Sort(k + c)
                steps = da(params, (), Sort(k)) >= 1
                assert lstas(params, (), Sort(k), 1) == up
                assert cpx_reducts(params, (), Sort(k)) == {Sort(k)} | (
                    {up} if steps else set()
                )
                assert cpx_holds(params, (), Sort(k), up) == steps


def test_cpx_unfolds_declarations():
    got = cpx_reducts(P, parse_env("[dec *0]"), Var(0))
    assert Sort(0) in got
    # plain parallel reduction refuses: the entry is not a definition
    assert cpr_reducts(parse_env("[dec *0]"), Var(0)) == {Var(0)}


def test_cpx_declaration_unfolding_lifts():
    env = parse_env("[dec *9; dec #0; dec *7]")
    assert cpx_reducts(P, env, Var(1)) >= {Var(1), Var(2)}


def test_cpx_cast_yields_annotation():
    got = cpx_reducts(P, (), parse_term("(cast *2 *2)"))
    assert got == {parse_term("(cast *2 *2)"), Sort(2)}
    # both the term and the annotation escape, and each reduces first
    got = cpx_reducts(P, (), parse_term("(cast *0 *1)"))
    assert {Sort(0), Sort(1), Sort(2)} <= got


def test_cpx_contains_cpr():
    for env, t in enumerate_closures(3, 1, 1):
        assert cpr_reducts(env, t) <= cpx_reducts(P, env, t)


def test_cpx_holds_matches_enumeration():
    pool = list(enumerate_closures(2, 1, 1))
    terms = enumerate_terms(3, 2, 3)
    for env, t in pool:
        reducts = cpx_reducts(P, env, t)
        for t2 in terms:
            assert cpx_holds(P, env, t, t2) == (t2 in reducts)
    # the steps over each environment reduct, asked over the environment
    # itself: the queries the lazy-equivalence laws transfer, negatives too
    for env, t in enumerate_closures(3, 2, 1):
        reducts = cpx_reducts(P, env, t)
        for env2 in lpx_reducts(P, env):
            for t2 in cpx_reducts(P, env2, t):
                assert cpx_holds(P, env, t, t2) == (t2 in reducts)


def test_static_type_is_an_extended_reduct():
    for env, t in enumerate_closures(3, 1, 1):
        if da(P, env, t) is None or da(P, env, t) < 1:
            continue
        u = lstas(P, env, t, 1)
        if u is not None:
            assert cpx_holds(P, env, t, u)


def test_lpx_examples():
    assert lpx_reducts(P, ()) == {()}
    assert lpx_reducts(P, parse_env("[dec *0]")) == {
        parse_env("[dec *0]"),
        parse_env("[dec *1]"),
    }
    assert lpx_reducts(P, parse_env("[dec *2]")) == {parse_env("[dec *2]")}


def test_lpx_holds_matches_enumeration():
    envs = enumerate_envs(2, 1, 1, 2)
    for env in envs:
        reducts = lpx_reducts(P, env)
        for env2 in envs:
            assert lpx_holds(P, env, env2) == (env2 in reducts)


def test_cnx_examples():
    assert cnx_holds(P, (), Sort(2))
    assert not cnx_holds(P, (), Sort(0))
    assert not cnx_holds(P, (), parse_term("(cast *2 *2)"))
    # unfolding reaches declarations, including the abstraction's own
    assert not cnx_holds(P, (), parse_term("(abst *2 #0)"))
    assert not cnx_holds(P, parse_env("[dec *2]"), Var(0))
    assert cnx_holds(P, (), parse_term("(abst *2 #1)"))


def test_cnx_matches_reduct_set():
    for env, t in enumerate_closures(3, 1, 1):
        assert cnx_holds(P, env, t) == (cpx_reducts(P, env, t) == {t})


def test_skeleton_factors_parallel_steps():
    """Every single-redex step is an extended parallel step, and every
    parallel reduct is reached by single-redex steps: the cycle scan and
    ``cnx_holds`` rest on both.  Over the typed closures, which are
    strongly normalizing, so each reach is finite."""

    for env, t in enumerate_closures(3, 2, 1):
        if aaa(env, t) is None:
            continue

        def skeleton(u):
            return list(_seq_steps((P.c, P.big_d), env, u))

        reached = set()
        for u, steps in reach(t, skeleton, P.budget):
            reached.add(u)
            for u2 in steps:
                assert _step_to((P.c, P.big_d), env, u, u2), (env, u, u2)
        assert cpx_reducts(P, env, t) <= reached, (env, t)


def test_csx_examples():
    assert csx_certify(P, (), Sort(2)) == SnReport(nodes=1, max_depth=0)
    assert csx_certify(P, (), Sort(0)) == SnReport(nodes=3, max_depth=2)
    assert csx_certify(P, (), parse_term("(abst *1 #0)")) == SnReport(
        nodes=6, max_depth=3
    )


def _assert_genuine_cycle(got, env):
    assert isinstance(got, Cycle)
    # a one-node loop could only be reflexivity, which is not a cycle
    assert len(got.path) >= 2 and len(set(got.path)) == len(got.path)
    # every listed node steps to its successor, and the last to the first
    loop = list(got.path) + [got.path[0]]
    for a, b in zip(loop, loop[1:]):
        assert cpx_holds(P, env, a, b)


def test_csx_refutes_self_application():
    _assert_genuine_cycle(csx_certify(P, (), OMEGA), ())
    _assert_genuine_cycle(csx_certify(P, (), REDUCTUM), ())


def test_csx_matches_graph_oracle():
    for env, t in enumerate_closures(3, 1, 1):
        got = csx_certify(P, env, t)
        oracle = _csx_oracle(env, t)
        if oracle is None:
            assert isinstance(got, Cycle)
        else:
            assert got == SnReport(*oracle)


def test_cnx_implies_singleton_report():
    for env, t in enumerate_closures(3, 1, 1):
        if cnx_holds(P, env, t):
            assert csx_certify(P, env, t) == SnReport(nodes=1, max_depth=0)


def test_extended_computation_from_beta_redex():
    # within two proper steps of a beta redex, a term either kept the
    # top-level application or is reachable from the contracted form;
    # two steps of the redex need at most two of the contractum, because a
    # parallel step develops every component at once
    cases = [
        (v, w, t1)
        for v in [Sort(0), Var(0), parse_term("(cast *0 *1)")]
        for w in [Sort(0), Sort(1)]
        for t1 in [Var(0), Sort(0), Var(1)]
    ]
    cases += [(v, Sort(0), parse_term("(appl #0 #0)")) for v in [Sort(0), Var(0)]]
    for env in [(), parse_env("[def *0]"), parse_env("[dec *0]")]:
        for v, w, t1 in cases:
            redex = Flat(FlatKind.APPL, v, Bind(BindKind.ABST, w, t1))
            reduced = Bind(BindKind.ABBR, Flat(FlatKind.CAST, w, v), t1)
            target = {reduced}
            for _ in range(2):
                target = {r for t in target for r in cpx_reducts(P, env, t)}
            frontier = {redex}
            for _ in range(2):
                frontier = {
                    r for t in frontier for r in cpx_reducts(P, env, t) if r != t
                }
                for u in frontier:
                    assert tsts(redex, u) or u in target
            # and the contraction itself is a single step
            assert cpx_holds(P, env, redex, reduced)


def test_frees_examples():
    assert frees_holds(0, 0, (), Var(0))
    assert frees_holds(0, 5, (), Var(0))  # the level gates only entries
    assert not frees_holds(0, 0, (), Sort(0))
    assert not frees_holds(1, 0, (), Var(0))
    # reached through entry 0, whose term mentions the next reference
    assert frees_holds(1, 0, parse_env("[dec *0; dec #0]"), Var(0))
    assert not frees_holds(1, 0, parse_env("[dec *0; dec *1]"), Var(0))
    # a level above the referring entry hides the chain
    assert not frees_holds(1, 1, parse_env("[dec *0; dec #0]"), Var(0))


def test_frees_indices():
    env = parse_env("[dec *0; dec #0]")
    assert frees_indices(0, env, Var(0), 4) == {0, 1}
    assert frees_indices(0, env, Sort(3), 4) == frozenset()
    assert frees_indices(0, (), parse_term("(abst *0 #1)"), 3) == {0}


# --- hereditarily free references by occurrence tests, used as an oracle


@lru_cache(maxsize=None)
def _frees_oracle(i, l, env, term):
    if delift(i, 1, term) is None:
        return True
    for j in range(l, min(i, len(env))):
        if delift(j, 1, term) is None and _frees_oracle(
            i - j - 1, 0, env[j + 1 :], env[j][1]
        ):
            return True
    return False


def test_frees_agree_with_occurrence_oracle():
    """``frees_holds``, ``frees_indices``, ``lleq_holds`` and ``llor``
    against the occurrence tests, for every level 0..3, every reference
    up to three past the environment, and every environment one extended
    step away."""

    try:
        for env, t in enumerate_closures(3, 2, 1):
            envs2 = lpx_reducts(P, env)
            for l in range(4):
                expect = {i for i in range(len(env) + 4) if _frees_oracle(i, l, env, t)}
                assert frees_indices(l, env, t, len(env) + 4) == expect, (env, t, l)
                for i in range(len(env) + 4):
                    assert frees_holds(i, l, env, t) == (i in expect)
                refs = [i for i in range(l, len(env)) if i in expect]
                for env2 in envs2:
                    assert lleq_holds(l, t, env, env2) == all(
                        env[i] == env2[i] for i in refs
                    )
                    assert llor(l, t, env, env2) == tuple(
                        env2[i] if i in refs else env[i] for i in range(len(env))
                    )
    finally:
        _frees_oracle.cache_clear()


def test_frees_reject_negative_references_and_levels():
    t = parse_term("(abbr *0 #0)")
    with pytest.raises(ValueError):
        frees_holds(-1, 0, (), t)
    with pytest.raises(ValueError):
        frees_holds(0, -1, (), t)
    with pytest.raises(ValueError):
        frees_indices(-1, (), t, 3)
    with pytest.raises(ValueError):
        lleq_holds(-1, t, (), ())
    with pytest.raises(ValueError):
        llor(-1, t, (), ())


def test_frees_of_a_reference_with_a_huge_index():
    big = int("9" * 4000)
    env = parse_env(f"[dec #{big}]")
    assert frees_holds(big + 1, 0, env, Var(0))
    assert not frees_holds(big, 0, env, Var(0))
    assert frees_indices(0, env, Var(0), big + 2) == {0, big + 1}
    assert not lleq_holds(0, Var(0), env, parse_env(f"[dec #{big - 1}]"))
    assert llor(0, Var(0), env, parse_env("[dec *0]")) == parse_env("[dec *0]")


def test_lleq_sorts_need_equal_length_only():
    assert lleq_holds(0, Sort(7), parse_env("[dec *0]"), parse_env("[def *1]"))
    assert not lleq_holds(0, Sort(7), parse_env("[dec *0]"), ())


def test_lleq_examples():
    assert not lleq_holds(0, Var(0), parse_env("[dec *0]"), parse_env("[dec *1]"))
    assert lleq_holds(0, Sort(0), parse_env("[dec *0]"), parse_env("[dec *1]"))
    # below the level the entry is ignored
    assert lleq_holds(1, Var(0), parse_env("[dec *0]"), parse_env("[dec *1]"))
    # hereditary: #0 refers to entry 1 through entry 0's term
    assert not lleq_holds(
        0, Var(0), parse_env("[dec *0; dec #0]"), parse_env("[dec *1; dec #0]")
    )


def test_llor_examples():
    assert llor(0, Sort(0), (), ()) == ()
    assert llor(0, Var(0), parse_env("[dec *0]"), parse_env("[dec *1]")) == parse_env(
        "[dec *1]"
    )
    assert llor(0, Sort(0), parse_env("[dec *0]"), parse_env("[dec *1]")) == parse_env(
        "[dec *0]"
    )
    assert llor(0, Sort(0), parse_env("[dec *0]"), ()) is None


# --- recursive rules for lazy equivalence, used as an oracle


@lru_cache(maxsize=None)
def _lleq_rec(l, t, env1, env2):
    if len(env1) != len(env2):
        return False
    match t:
        case Sort(_):
            return True
        case Var(i):
            if i < l or i >= len(env1):
                return True
            if env1[i] != env2[i]:
                return False
            kind, side = env1[i]
            return _lleq_rec(0, side, env1[i + 1 :], env2[i + 1 :])
        case Bind(kind, side, body):
            return _lleq_rec(l, side, env1, env2) and _lleq_rec(
                l + 1, body, env_push(env1, kind, side), env_push(env2, kind, side)
            )
        case Flat(_, side, body):
            return _lleq_rec(l, side, env1, env2) and _lleq_rec(l, body, env1, env2)
    raise TypeError


_ENVS = enumerate_envs(2, 1, 1, 2)
_PAIRS = [
    (e1, e2) for e1 in _ENVS for e2 in _ENVS if len(e1) == len(e2)
]
# all short pairs plus a spread of the two-entry ones
_PAIRS_THIN = [p for p in _PAIRS if len(p[0]) <= 1] + [
    p for p in _PAIRS if len(p[0]) == 2
][::7]
_TERMS = enumerate_terms(3, 1, 2)


def test_lleq_agrees_with_recursive_rules():
    for t in _TERMS:
        for l in (0, 1):
            for e1, e2 in _PAIRS_THIN:
                assert lleq_holds(l, t, e1, e2) == _lleq_rec(l, t, e1, e2)


def test_lleq_is_an_equivalence():
    terms = _TERMS[::3]
    for t in terms:
        for e1, e2 in _PAIRS:
            assert lleq_holds(0, t, e1, e1)
            if lleq_holds(0, t, e1, e2):
                assert lleq_holds(0, t, e2, e1)
    one_entry = [e for e in _ENVS if len(e) == 1]
    for t in terms:
        for e1 in one_entry:
            for e2 in one_entry:
                if not lleq_holds(0, t, e1, e2):
                    continue
                for e3 in one_entry:
                    if lleq_holds(0, t, e2, e3):
                        assert lleq_holds(0, t, e1, e3)


def test_lleq_transits_extended_reduction():
    # a step taken in one environment is a step in any lazily equal one
    for env1, env2 in _PAIRS:
        for t1 in _TERMS[::3]:
            if not lleq_holds(0, t1, env1, env2):
                continue
            for t2 in cpx_reducts(P, env2, t1):
                assert cpx_holds(P, env1, t1, t2)


def test_lleq_confluent_with_extended_reduction():
    for env1, env2 in _PAIRS:
        for t1 in _TERMS[::3]:
            if not lleq_holds(0, t1, env1, env2):
                continue
            for t2 in cpx_reducts(P, env1, t1):
                assert lleq_holds(0, t2, env1, env2)


def test_llor_is_total_on_equal_lengths():
    for e1, e2 in _PAIRS:
        for t in _TERMS[::7]:
            for l in (0, 1):
                got = llor(l, t, e1, e2)
                assert got is not None and len(got) == len(e1)


def test_llor_operand_laws():
    # joining with the target of an environment step yields another valid
    # step whose target stays lazily equal
    for env1, env2 in _PAIRS:
        if not env1:
            continue
        for t in _TERMS[::7]:
            if not lleq_holds(0, t, env1, env2):
                continue
            for k2 in lpx_reducts(P, env2):
                k1 = llor(0, t, env1, k2)
                assert k1 is not None
                assert lpx_holds(P, env1, k1)
                assert lleq_holds(0, t, k2, k1)


def test_lsx_examples():
    assert lsx_certify(P, 3, Var(0), ()) == SnReport(nodes=1, max_depth=0)
    assert lsx_certify(P, 0, Sort(0), parse_env("[dec *0]")) == SnReport(
        nodes=1, max_depth=0
    )
    # the referred entry can change twice before its sort goes stale
    assert lsx_certify(P, 0, Var(0), parse_env("[dec *0]")) == SnReport(
        nodes=3, max_depth=2
    )


def test_lsx_matches_graph_oracle():
    for env in _ENVS:
        for t in _TERMS[::5]:
            for l in (0, 1):
                got = lsx_certify(P, l, t, env)
                oracle = _lsx_oracle(l, t, env)
                assert oracle is not None and got == SnReport(*oracle)


def test_csx_implies_lsx():
    for env, t in enumerate_closures(3, 1, 1):
        if isinstance(csx_certify(P, env, t), SnReport):
            for l in (0, 1, 2):
                assert isinstance(lsx_certify(P, l, t, env), SnReport)


def test_lcosx_examples():
    assert lcosx_certify(P, 0, ()) is True
    assert lcosx_certify(P, 0, parse_env("[dec #4; def #5]")) is True
    assert lcosx_certify(P, 1, parse_env("[dec *0]")) is True
    assert lcosx_certify(P, 2, parse_env("[dec *0; dec *1]")) is True


def test_lcosx_level_zero_always_holds():
    for env in _ENVS:
        assert lcosx_certify(P, 0, env) is True
