"""Property suites: clean sweeps, dispatch, and non-vacuity.

The mutant tests monkeypatch a dependency inside the suite module and
check that the sweep reports counterexamples — guarding against suites
that pass because they never fire.
"""

from __future__ import annotations

import pytest

import lamcalc.props as props
from lamcalc import Params, Sort, Var, parse_env, parse_term
from lamcalc.props import SUITES, run_suite

P = Params()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_clean_on_small_universe(name):
    assert run_suite(name, P, 3, 1, 1) == []


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("flat-earth", P, 2, 1, 1)


def test_suite_table_is_pinned():
    assert sorted(SUITES) == [
        "arity-preservation",
        "church-rosser",
        "diamond",
        "lleq-laws",
        "sn-extended",
        "statics-laws",
        "subject-reduction",
        "very-big-tree",
    ]


def test_arity_suite_detects_a_lying_arity(monkeypatch):
    calls = {"n": 0}
    real = props.aaa

    def lying_aaa(env, term):
        calls["n"] += 1
        got = real(env, term)
        # report the wrong arity for every reduct query after the first
        if got is not None and calls["n"] % 2 == 0:
            return None
        return got

    monkeypatch.setattr(props, "aaa", lying_aaa)
    bad = run_suite("arity-preservation", P, 2, 1, 1)
    assert bad, "mutant arity went unnoticed"
    assert bad == sorted(bad)
    assert all(" |- " in line for line in bad)


def test_diamond_suite_detects_broken_joins(monkeypatch):
    a, b = parse_term("*0"), parse_term("*1")

    def forked_reducts(env, term, budget):
        if term == parse_term("#0") and env == parse_env("[dec *0]"):
            return frozenset({a, b})
        return frozenset({term})

    monkeypatch.setattr(props, "cpr_reducts", forked_reducts)
    bad = run_suite("diamond", P, 1, 1, 0)
    assert any("do not rejoin" in line for line in bad)


def test_statics_suite_detects_fixed_types(monkeypatch):
    def lazy_lstas(params, env, term, n):
        return term  # claims every term is its own static type

    monkeypatch.setattr(props, "lstas", lazy_lstas)
    bad = run_suite("statics-laws", P, 1, 1, 0)
    assert any("fixed under" in line for line in bad)


def test_recursive_lleq_spot_checks():
    dec = parse_env("[dec *0]")
    d0, d1 = parse_env("[def *0]"), parse_env("[def *1]")
    assert props._lleq_recursive(0, parse_term("*0"), d0, d1)
    assert not props._lleq_recursive(0, parse_term("#0"), d0, d1)
    assert props._lleq_recursive(1, parse_term("#0"), d0, d1)
    assert not props._lleq_recursive(0, parse_term("#0"), dec, d1)
    assert props._lleq_recursive(0, parse_term("#1"), d0, d1)


def test_lleq_suite_detects_broken_transfer_and_stability(monkeypatch):
    real = props.cpx_reducts

    def env_marked_reducts(params, env, term):
        # a reduct that depends on entry 0, which lazy equivalence ignores
        # for terms that do not refer to it
        match env:
            case ((_, Sort(k)), *_):
                return real(params, env, term) | {Sort(100 + k)}
        return real(params, env, term)

    monkeypatch.setattr(props, "cpx_reducts", env_marked_reducts)
    bad = run_suite("lleq-laws", P, 1, 1, 0)
    assert any("does not transfer" in line for line in bad)

    def var_reducts(params, env, term):
        # a reduct that refers to entry 0, whatever the term refers to
        return real(params, env, term) | ({Var(0)} if env else set())

    monkeypatch.setattr(props, "cpx_reducts", var_reducts)
    bad = run_suite("lleq-laws", P, 1, 1, 0)
    assert any("lost at" in line for line in bad)
