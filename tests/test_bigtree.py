from __future__ import annotations

import random

import pytest

from graph_oracle import graph_report
from lamcalc import BudgetExceeded, Params, aaa, clear_caches, parse_env, parse_term
from lamcalc.bigtree import (
    BigTreeReport,
    fpb_successors,
    fpbq_holds,
    fqu_children,
    fqus_holds,
    fquq_holds,
    fsb_certify,
    fsb_graph,
)
from lamcalc.bigtree import _closure_seq_steps, _fpb_holds, _fqu_holds
from lamcalc.extended import (
    Cycle,
    SnReport,
    _seq_steps,
    cpx_reducts,
    csx_certify,
    lleq_holds,
    lpx_reducts,
)
from lamcalc.reduction import cpr_reducts, lpr_reducts
from lamcalc.relocation import delift
from lamcalc.terms import Bind, Closure, Flat, Var, closure_measure, env_push
from lamcalc.universe import closure_key, enumerate_closures

P = Params()

DELTA_K = parse_term("(abst *0 (appl *1 (appl #0 #0)))")
OMEGA_K = parse_term(
    "(appl (abst *0 (appl *1 (appl #0 #0))) (abst *0 (appl *1 (appl #0 #0))))"
)


def _fsb_oracle(env, term):
    return graph_report(
        Closure(env, term),
        lambda c: sorted(fpb_successors(P, *c), key=closure_key),
        cap=30000,
    )


def test_fqu_structural_children():
    env = parse_env("[def *1]")
    got = fqu_children(env, parse_term("(abst *0 #0)"))
    assert Closure(env, parse_term("*0")) in got
    assert Closure(parse_env("[def *1; dec *0]"), parse_term("#0")) in got
    got = fqu_children((), parse_term("(appl *0 *1)"))
    assert Closure((), parse_term("*0")) in got
    assert Closure((), parse_term("*1")) in got


def test_fqu_entry_child():
    assert Closure((), parse_term("*0")) in fqu_children(
        parse_env("[dec *0]"), parse_term("#0")
    )
    # only the innermost reference steps into its entry directly
    assert fqu_children(parse_env("[dec *0; dec *1]"), parse_term("#1")) == {
        Closure(parse_env("[dec *0]"), parse_term("#0"))
    }


def test_fqu_drop_child():
    # sorts are untouched by relocation, so the dropped child keeps them
    assert Closure((), parse_term("*1")) in fqu_children(
        parse_env("[dec *0]"), parse_term("*1")
    )
    # a term using the innermost entry cannot drop past it
    env2 = parse_env("[dec *0; dec *1]")
    drops = {c for c in fqu_children(env2, parse_term("#0")) if len(c.env) < 2}
    assert drops == {Closure(parse_env("[dec *0]"), parse_term("*1"))}


def test_fqu_atoms_have_no_children_in_empty_env():
    assert fqu_children((), parse_term("*5")) == frozenset()
    assert fqu_children((), parse_term("#3")) == frozenset()


def test_fqu_measure_strictly_decreases():
    for env, t in enumerate_closures(3, 1, 1):
        parent = closure_measure(Closure(env, t))
        for child in fqu_children(env, t):
            assert closure_measure(child) < parent


def test_fqus_examples():
    c = Closure(parse_env("[def *0]"), parse_term("(appl #0 #0)"))
    assert fqus_holds(c, c, 1)
    assert fqus_holds(
        Closure((), parse_term("(abst *0 #0)")),
        Closure(parse_env("[dec *0]"), parse_term("#0")),
        8,
    )
    assert not fqus_holds(
        Closure((), parse_term("*0")), Closure((), parse_term("*1")), 8
    )
    # a direct subclosure is found at any budget
    assert fqus_holds(
        Closure((), parse_term("(abst *0 #0)")),
        Closure(parse_env("[dec *0]"), parse_term("#0")),
        1,
    )


def test_fquq_is_fqu_or_equal():
    c = Closure((), parse_term("(cast *0 *1)"))
    assert fquq_holds(c, c)
    assert fquq_holds(c, Closure((), parse_term("*1")))
    assert not fquq_holds(c, Closure((), parse_term("*2")))


def test_subclosure_commutes_with_term_reduction():
    # child reduct -> some parent reduct having it as a child, env fixed
    for env, t1 in enumerate_closures(3, 1, 1):
        for k, v1 in fqu_children(env, t1):
            for v2 in cpx_reducts(P, k, v1):
                assert any(
                    Closure(k, v2) in fqu_children(env, t2)
                    for t2 in cpx_reducts(P, env, t1)
                )


def test_subclosure_commutes_with_plain_reduction_pentagon():
    # plain reduction needs an environment step to close the diagram
    for env, t1 in enumerate_closures(3, 1, 1):
        for k, v1 in fqu_children(env, t1):
            for v2 in cpr_reducts(k, v1):
                assert any(
                    Closure(k, v2) in fqu_children(env2, t2)
                    for env2 in lpr_reducts(env)
                    for t2 in cpr_reducts(env2, t1)
                )


def test_fpb_successor_examples():
    assert fpb_successors(P, (), parse_term("*2")) == frozenset()
    assert fpb_successors(P, (), parse_term("*0")) == {
        Closure((), parse_term("*1"))
    }
    got = fpb_successors(P, (), OMEGA_K)
    assert Closure((), DELTA_K) in got
    reduced = parse_term(
        "(abbr (cast *0 (abst *0 (appl *1 (appl #0 #0)))) (appl *1 (appl #0 #0)))"
    )
    assert Closure((), reduced) in got


def test_fpb_is_never_reflexive_and_implies_fpbq():
    for env, t in enumerate_closures(3, 1, 1):
        c1 = Closure(env, t)
        for c2 in fpb_successors(P, env, t):
            assert c2 != c1
            assert _fpb_holds(P, c1, c2)
            assert fpbq_holds(P, c1, c2)


GATE = (4, 2, 1)  # term size, environment length, largest sort


def _gate_roots(every=61, n_random=20, seed=8):
    """Every ``every``-th typed gate closure, and ``n_random`` seeded random
    gate closures to ask about as well.  Roots reach drops of two entries,
    which ``enumerate_closures(2, 1, 1)`` never does."""

    pool = [Closure(env, t) for env, t in enumerate_closures(*GATE)]
    typed = [c for c in pool if aaa(*c) is not None]
    return typed[::every], random.Random(seed).sample(pool, n_random)


def test_fqu_holds_matches_children_at_gate_bounds():
    roots, others = _gate_roots()
    drops = set()
    for c in roots:
        children = fqu_children(*c)
        grandchildren = {g for d in children for g in fqu_children(*d)}
        for d in children | grandchildren | set(others) | {c}:
            assert _fqu_holds(c, d) == (d in children), (c, d)
        drops.update(len(c.env) - len(d.env) for d in children)
    assert 2 in drops


def test_fpb_holds_matches_successor_sets():
    pool = [Closure(env, t) for env, t in enumerate_closures(2, 1, 1)]
    for c1 in pool:
        succ = fpb_successors(P, *c1)
        for c2 in pool:
            assert _fpb_holds(P, c1, c2) == (c2 in succ)
    # at gate bounds, against successors two steps out, subclosures and
    # every environment reduct, observed by the term or not
    roots, others = _gate_roots()
    for c in roots:
        succ = fpb_successors(P, *c)
        after = {e for d in succ for e in fpb_successors(P, *d)}
        envs = {Closure(e2, c.term) for e2 in lpx_reducts(P, c.env)}
        for d in succ | after | envs | fqu_children(*c) | set(others) | {c}:
            assert _fpb_holds(P, c, d) == (d in succ), (c, d)


def test_closure_skeleton_keeps_observed_entry_steps():
    # the scan's skeleton steps an entry only when the term refers to it;
    # an unreferred entry's steps would all be lazily equivalent
    roots, _ = _gate_roots()
    for c in roots:
        env, term = c
        oracle = list(fqu_children(env, term))
        oracle += [
            Closure(env, t2)
            for t2 in _seq_steps((P.c, P.big_d), env, term)
            if t2 != term
        ]
        for i, (kind, side) in enumerate(env):
            for s2 in _seq_steps((P.c, P.big_d), env[i + 1 :], side):
                e2 = env[:i] + ((kind, s2),) + env[i + 1 :]
                if s2 != side and not lleq_holds(0, term, env, e2):
                    oracle.append(Closure(e2, term))
        assert list(_closure_seq_steps(P, c)) == oracle, c


def _fqu_children_oracle(env, term):
    """The direct subclosures, trying every prefix drop without stopping
    early: an independent oracle for :func:`fqu_children`."""

    out = set()
    match term:
        case Var(0) if env:
            out.add(Closure(env[1:], env[0][1]))
        case Bind(kind, side, body):
            out.add(Closure(env, side))
            out.add(Closure(env_push(env, kind, side), body))
        case Flat(_, side, body):
            out.add(Closure(env, side))
            out.add(Closure(env, body))
    for m in range(len(env)):
        dropped = delift(0, m + 1, term)
        if dropped is not None:
            out.add(Closure(env[m + 1 :], dropped))
    return frozenset(out)


def test_fqu_children_early_stop_matches_oracle():
    count = 0
    for env, t in enumerate_closures(*GATE):
        assert fqu_children(env, t) == _fqu_children_oracle(env, t), (env, t)
        count += 1
    assert count == 72072


def test_fpbq_examples():
    c = Closure(parse_env("[def *0]"), parse_term("#0"))
    assert fpbq_holds(P, c, c)
    # a sort observes no entry, so any same-length environment is one step
    assert fpbq_holds(
        P,
        Closure(parse_env("[dec *0]"), parse_term("*5")),
        Closure(parse_env("[dec *1]"), parse_term("*5")),
    )
    assert not fpbq_holds(
        P, Closure((), parse_term("*2")), Closure((), parse_term("*3"))
    )


def test_fsb_examples():
    assert fsb_certify(P, (), parse_term("*2")) == BigTreeReport(
        nodes=1, edges=0, max_depth=0
    )
    assert fsb_certify(P, (), parse_term("*0")) == BigTreeReport(
        nodes=3, edges=2, max_depth=2
    )
    assert fsb_certify(P, (), parse_term("(abst *1 #0)")) == BigTreeReport(
        nodes=14, edges=36, max_depth=5
    )


def test_fsb_refutes_self_application_loop():
    got = fsb_certify(P, (), OMEGA_K)
    assert isinstance(got, Cycle)
    assert len(got.path) >= 2 and len(set(got.path)) == len(got.path)
    loop = list(got.path) + [got.path[0]]
    for a, b in zip(loop, loop[1:]):
        assert _fpb_holds(P, a, b)


def test_fsb_matches_graph_oracle():
    pool = list(enumerate_closures(2, 1, 1)) + list(enumerate_closures(3, 1, 1))[::37]
    for env, t in pool:
        oracle = _fsb_oracle(env, t)
        assert oracle is not None
        assert fsb_certify(P, env, t) == BigTreeReport(*oracle)


def test_warm_reports_match_graph_oracle_at_gate_bounds():
    """Certificates drawn from warm tables: typed gate closures certified
    in one process, neighbours sharing subgraphs, and every tenth report
    re-derived by the BFS oracle."""

    typed = [c for c in enumerate_closures(*GATE) if aaa(*c) is not None]
    sample = typed[1000:1030] + typed[5000:5030] + typed[::151]
    clear_caches()
    reports = [(fsb_certify(P, *c), csx_certify(P, *c)) for c in sample]
    for (env, t), (fsb, csx) in list(zip(sample, reports))[::10]:
        assert fsb == BigTreeReport(*_fsb_oracle(env, t)), (env, t)
        nodes, _, depth = graph_report(
            t,
            lambda t1: [t2 for t2 in cpx_reducts(P, env, t1) if t2 != t1],
            cap=30000,
        )
        assert csx == SnReport(nodes, depth), (env, t)


def test_typed_closures_certify():
    for env, t in enumerate_closures(3, 1, 1):
        if aaa(env, t) is not None:
            assert isinstance(fsb_certify(P, env, t), BigTreeReport)


def test_fsb_graph_export():
    got = fsb_graph(P, (), parse_term("*0"))
    assert got == "[] |- *0 -> [] |- *1\n[] |- *1 -> [] |- *2"
    assert got == fsb_graph(P, (), parse_term("*0"))  # deterministic
    report = fsb_certify(P, (), parse_term("(abst *1 #0)"))
    lines = fsb_graph(P, (), parse_term("(abst *1 #0)")).splitlines()
    assert len(lines) == report.edges
    assert all(" -> " in line for line in lines)
    assert lines == sorted(lines)
    # *0 -> *1 -> *2 is three closures
    with pytest.raises(BudgetExceeded, match="more than 2 reachable nodes"):
        fsb_graph(Params(budget=2), (), parse_term("*0"))
