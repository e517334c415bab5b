"""Property suites: clean sweeps, dispatch, and non-vacuity.

The mutant tests monkeypatch a dependency inside the suite module and
check that the sweep reports counterexamples — guarding against suites
that pass because they never fire.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lamcalc.props as props
from lamcalc import BudgetExceeded, Cycle, Params, Sort, Var, parse_env, parse_term
from lamcalc.props import SUITES, run_suite
from lamcalc.validity import PreservationReport

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


@pytest.mark.parametrize(
    "name, certifier",
    [("sn-extended", "csx_certify"), ("very-big-tree", "fsb_certify")],
)
def test_certifier_suites_report_spent_budgets_and_cycles(
    monkeypatch, name, certifier
):
    def fake(params, env, term):
        if env == parse_env("[def *0]"):
            raise BudgetExceeded("node budget 7 exceeded")
        if env == parse_env("[dec *0]"):
            return Cycle((term, term, term))
        return None  # neither a cycle nor a spent budget: a certificate

    monkeypatch.setattr(props, certifier, fake)
    assert run_suite(name, P, 1, 1, 0) == [
        "[dec *0] |- #0: cycle of length 3",
        "[dec *0] |- *0: cycle of length 3",
        "[def *0] |- #0: budget exhausted (node budget 7 exceeded)",
        "[def *0] |- *0: budget exhausted (node budget 7 exceeded)",
    ]


def test_church_rosser_suite_detects_two_step_forks(monkeypatch):
    def forked_reducts(env, term, budget):
        if term == Var(0) and env == parse_env("[dec *0]"):
            return frozenset({Sort(0), Sort(1)})
        return frozenset({term})

    monkeypatch.setattr(props, "cpr_reducts", forked_reducts)
    assert run_suite("church-rosser", P, 1, 1, 0) == [
        "[dec *0] |- #0: *0 and *1 do not rejoin in two steps"
    ]


def test_subject_reduction_suite_reports_each_report_line(monkeypatch):
    def report(params, env, term):
        if env == () and term == Sort(0):
            return PreservationReport(True, False, True, True, ("validity: made up",))
        return PreservationReport(True, True, True, True, ())

    monkeypatch.setattr(props, "preservation_report", report)
    assert run_suite("subject-reduction", P, 1, 1, 0) == [
        "[] |- *0: validity: made up"
    ]


def test_subject_reduction_suite_detects_invalid_two_step_reducts(monkeypatch):
    real = props.cpr_reducts

    def reducts(env, term, budget):
        if env == () and term == Sort(0):
            return frozenset({Sort(0), Var(0)})  # #0 is unbound, so invalid
        return real(env, term, budget)

    monkeypatch.setattr(props, "cpr_reducts", reducts)
    # one line per invalid term, though two paths reach #0: through *0
    # and through #0
    assert run_suite("subject-reduction", P, 1, 1, 0) == [
        "[] |- *0: two-step reduct #0 is not valid",
    ]


def test_lleq_suite_detects_disagreeing_characterizations(monkeypatch):
    real = props.lleq_holds

    def flipped(l, term, env1, env2):
        got = real(l, term, env1, env2)
        if l == 1 and term == Var(0) and env1 == parse_env("[def *0]"):
            return not got
        return got

    monkeypatch.setattr(props, "lleq_holds", flipped)
    assert run_suite("lleq-laws", P, 1, 1, 0) == [
        "[def *0] |- #0: characterizations disagree at level 1 against [def *0]",
        "[def *0] |- #0: characterizations disagree at level 1 against [def *1]",
    ]


def test_lleq_suite_detects_an_undefined_union(monkeypatch):
    real = props.llor
    e1, e2 = parse_env("[def *0]"), parse_env("[dec *0]")

    def partial_llor(l, term, env1, env2):
        if (env1, env2, term) == (e1, e2, Var(1)):
            return None
        return real(l, term, env1, env2)

    monkeypatch.setattr(props, "llor", partial_llor)
    assert run_suite("lleq-laws", P, 1, 1, 0) == [
        "pointwise union undefined: [def *0] with [dec *0] at #1"
    ]


def test_statics_suite_detects_a_missing_type(monkeypatch):
    real = props.lstas

    def lstas(params, env, term, n):
        if (env, term, n) == ((), Sort(0), 1):
            return None
        return real(params, env, term, n)

    monkeypatch.setattr(props, "lstas", lstas)
    assert run_suite("statics-laws", P, 1, 0, 0) == [
        "[] |- *0: degree 2 but no type at 1"
    ]


def test_statics_suite_detects_a_wrong_degree_of_a_type(monkeypatch):
    real = props.da

    def da(params, env, term):
        return 7 if term == Sort(1) else real(params, env, term)

    monkeypatch.setattr(props, "da", da)
    assert run_suite("statics-laws", P, 1, 0, 0) == [
        "[] |- *0: type at 1 has degree 7, expected 1"
    ]


def enumeration_calls(tree: ast.Module):
    """The name of the top-level function around each call of
    ``enumerate_closures``, however the function is reached."""

    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if name == "enumerate_closures":
                    yield getattr(top, "name", "<module>")


def test_laws_are_swept_by_one_loop():
    """Only ``_sweep`` iterates the closures for a law; the lazy-equivalence
    suite enumerates them once more, to group its environments by length."""

    tree = ast.parse(Path(props.__file__).read_text())
    assert sorted(enumeration_calls(tree)) == ["_lleq_laws", "_sweep"]
