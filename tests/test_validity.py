from __future__ import annotations

import pytest

from lamcalc import (
    Params, Sort, Var, aaa, abbr, parse_env, parse_term, term_size, validity,
)
from lamcalc.bigtree import BigTreeReport, fsb_certify
from lamcalc.reduction import conv, cpr_reducts
from lamcalc.statics import da, lstas, lsubd_holds
from lamcalc.arity import lsuba_holds
from lamcalc.universe import enumerate_closures, enumerate_envs
from lamcalc.validity import (
    PreservationReport,
    ValidityReport,
    lsubsv_holds,
    preservation_report,
    scpds_check,
    scpes_check,
    shnv_check,
    snv_check,
    snv_oracle,
)

P = Params()

GOOD_APPL = parse_term("(appl *0 (abst *1 #0))")
BAD_APPL = parse_term("(appl *0 (abst *0 #0))")
GOOD_CAST = parse_term("(cast *1 *0)")


def test_report_shape():
    assert ValidityReport(True).failure is None
    with pytest.raises(ValueError):
        ValidityReport(True, ("", "appl", "nope"))


def test_scpds_examples():
    assert scpds_check(P, (), parse_term("*0"), parse_term("*1"), 1)
    # degree of *3 is zero, so not even one static-type step is allowed
    assert not scpds_check(P, (), parse_term("*3"), parse_term("*4"), 1)
    assert scpds_check(P, (), parse_term("*0"), parse_term("*0"), 0)
    assert not scpds_check(P, (), parse_term("*0"), parse_term("*0"), 1)


def test_scpds_bounded_search_fallback():
    # a term with a degree but no arity sidesteps normalization: the
    # computation half is then decided by direct bounded search
    env = parse_env("[dec *0]")
    t1 = parse_term("(appl #0 #0)")
    assert aaa(env, t1) is None and da(P, env, t1) is not None
    x = lstas(P, env, t1, 1)
    assert x is not None
    assert scpds_check(P, env, t1, x, 1)
    assert not scpds_check(P, env, t1, parse_term("(appl *0 *0)"), 1)


def test_scpes_examples():
    assert scpes_check(P, (), parse_term("*0"), 1, parse_term("*1"), 0)
    assert not scpes_check(P, (), parse_term("*0"), 0, parse_term("*1"), 0)
    for env, t in enumerate_closures(3, 1, 1):
        if da(P, env, t) is not None and lstas(P, env, t, 0) is not None:
            assert scpes_check(P, env, t, 0, t, 0)


def test_snv_sorts_are_valid():
    assert snv_check(P, (), parse_term("*9")).valid


def test_snv_reference_follows_its_entry():
    assert snv_check(P, parse_env("[dec *0]"), parse_term("#0")).valid
    assert snv_check(P, parse_env("[def (cast *1 *0)]"), parse_term("#0")).valid
    got = snv_check(P, (), parse_term("#0"))
    assert not got.valid and got.failure[1] == "arity"


def test_snv_application_checks_the_domain():
    assert snv_check(P, (), GOOD_APPL).valid
    got = snv_check(P, (), BAD_APPL)
    assert not got.valid
    assert got.failure[1] == "appl"


def test_snv_cast_checks_the_annotation():
    assert snv_check(P, (), GOOD_CAST).valid
    got = snv_check(P, (), parse_term("(cast *0 *0)"))
    assert not got.valid and got.failure[1] == "cast"


def test_snv_failure_positions_point_at_the_subterm():
    got = snv_check(P, (), parse_term("(abst *0 (appl *0 (abst *0 #0)))"))
    assert not got.valid
    assert got.failure[0].startswith("body")


@pytest.mark.parametrize("depth", [50, 100])
def test_snv_walks_each_definition_of_a_chain_once(monkeypatch, depth):
    # (abbr *0 (abbr #0 … #0)): every #0 names the side just found valid,
    # so no reference walks the chain again.
    t = Var(0)
    for _ in range(depth - 1):
        t = abbr(Var(0), t)
    t = abbr(Sort(0), t)
    calls = 0
    walk = validity._snv

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(validity, "_snv", counted)
    assert snv_check(P, (), t).valid
    assert calls <= 2 * term_size(t)


def test_snv_oracle_examples():
    assert snv_oracle(P, (), parse_term("*0"), 4)
    assert not snv_oracle(P, (), parse_term("#0"), 4)
    assert snv_oracle(P, (), GOOD_CAST, 4)
    assert snv_oracle(P, (), GOOD_APPL, 4)
    assert not snv_oracle(P, (), BAD_APPL, 4)


def test_snv_checker_agrees_with_oracle():
    for env, t in enumerate_closures(3, 1, 1):
        assert snv_check(P, env, t).valid == snv_oracle(P, env, t, 4)


def test_shnv_examples():
    assert shnv_check(P, (), parse_term("*1"), parse_term("*0"), 0)
    assert shnv_check(P, (), parse_term("*1"), parse_term("*0"), 1)
    assert not shnv_check(P, (), parse_term("*0"), parse_term("*0"), 0)
    # the degree of *1 cannot cover a third level
    assert not shnv_check(P, (), parse_term("*1"), parse_term("*0"), 2)


def test_lsubsv_examples():
    assert lsubsv_holds(P, (), ())
    assert lsubsv_holds(P, parse_env("[dec *0]"), parse_env("[dec *0]"))
    assert lsubsv_holds(P, parse_env("[def (cast *1 *0)]"), parse_env("[dec *1]"))
    # a plain definition cannot stand in for a declaration
    assert not lsubsv_holds(P, parse_env("[def *0]"), parse_env("[dec *0]"))
    # the value must sit exactly one degree above the annotation
    assert not lsubsv_holds(P, parse_env("[def (cast *0 *0)]"), parse_env("[dec *0]"))
    assert not lsubsv_holds(P, parse_env("[dec *0]"), ())


def test_lsubsv_implies_the_weaker_refinements():
    envs = enumerate_envs(2, 1, 1, 2) + [
        parse_env("[def (cast *1 *0)]"),
        parse_env("[dec *1]"),
        parse_env("[def (cast *1 *0); dec *0]"),
        parse_env("[dec *1; dec *0]"),
    ]
    hits = 0
    for e1 in envs:
        for e2 in envs:
            if lsubsv_holds(P, e1, e2):
                hits += e1 != e2
                assert lsubd_holds(P, e1, e2)
                assert lsuba_holds(e1, e2)
    assert hits >= 2  # the search saw proper refinements, not just equality


def test_validity_implies_arity_and_termination():
    for env, t in enumerate_closures(3, 1, 1):
        if snv_check(P, env, t).valid:
            assert aaa(env, t) is not None
            assert isinstance(fsb_certify(P, env, t), BigTreeReport)


def test_validity_survives_computation():
    for env, t in enumerate_closures(3, 1, 1):
        if not snv_check(P, env, t).valid:
            continue
        for t2 in cpr_reducts(env, t):
            assert snv_check(P, env, t2).valid
            for t3 in cpr_reducts(env, t2):
                assert snv_check(P, env, t3).valid


def test_static_types_of_convertible_terms_are_convertible():
    by_env: dict = {}
    for env, t in enumerate_closures(3, 1, 1):
        if snv_check(P, env, t).valid:
            by_env.setdefault(env, []).append(t)
    checked = 0
    for env, ts in by_env.items():
        for i, t1 in enumerate(ts):
            for t2 in ts[i + 1 :]:
                if not conv(env, t1, t2):
                    continue
                d1, d2 = da(P, env, t1), da(P, env, t2)
                for n in range(min(d1, d2) + 1):
                    u1 = lstas(P, env, t1, n)
                    u2 = lstas(P, env, t2, n)
                    if u1 is not None and u2 is not None:
                        checked += 1
                        assert conv(env, u1, u2)
    assert checked > 50


def test_preservation_examples():
    for src in ("*0", "(appl *0 (abst *1 #0))", "(cast *1 *0)"):
        got = preservation_report(P, (), parse_term(src))
        assert got.all_pass and got.failures == ()


def test_preservation_rejects_invalid_closures():
    got = preservation_report(P, (), BAD_APPL)
    assert not got.all_pass
    assert got.failures == ("the closure itself is not valid",)
    assert not (got.degree_preserved or got.validity_preserved)


def test_preservation_across_the_small_universe():
    for env, t in enumerate_closures(3, 1, 1):
        if snv_check(P, env, t).valid:
            assert preservation_report(P, env, t).all_pass
