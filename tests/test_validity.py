from __future__ import annotations

import pytest

from lamcalc import (
    FuelExhausted, Params, Sort, Var, aaa, abbr, parse_env, parse_term, term_size,
    validity,
)
from lamcalc.bigtree import BigTreeReport, fsb_certify
from lamcalc.reduction import conv, cpr_reducts, lpr_reducts
from lamcalc.sexpr import print_closure, print_term
from lamcalc.statics import da, lstas, lsubd_holds
from lamcalc.arity import lsuba_holds
from lamcalc.universe import enumerate_closures, enumerate_envs, env_key
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


def test_scpes_tests_both_degrees_before_normalizing():
    """OMEGA's static type has no normal form: a degree that does not cover
    the other side's steps answers ``False`` before it is normalized."""

    omega = parse_term("(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))")
    short = Params(fuel=20)
    assert not scpes_check(short, (), omega, 0, Sort(0), 5)
    assert not scpes_check(short, (), Sort(0), 5, omega, 0)
    with pytest.raises(FuelExhausted):
        scpes_check(short, (), omega, 0, Sort(0), 0)


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


def test_snv_walks_each_entry_of_an_environment_chain_once(monkeypatch):
    # [def *0; def (abbr #0 #1) …] ⊢ #0: each entry refers to the one below
    # it twice, so a walk that forgets the entries it found valid doubles
    # its work at every entry.
    n = 16
    env = parse_env("[" + "; ".join(["def *0"] + ["def (abbr #0 #1)"] * (n - 1)) + "]")
    calls = 0
    walk = validity._snv

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(validity, "_snv", counted)
    assert snv_check(P, env, Var(0)).valid
    assert calls <= 3 * n


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


# A valid closure whose one proper term reduct (the beta reduct) is neither
# a subterm nor a static type of anything the validity walk checks, under
# an environment with two reducts: a check faked on that reduct alone fails
# only its own flag.
PRES_ENV = parse_env("[def (cast *2 *1)]")
PRES_TERM = GOOD_APPL
BETA = parse_term("(abbr (cast *1 *0) #0)")


def _lines(case: str, params: Params) -> list[str]:
    """Today's failure lines for the faked ``case``, in today's order:
    reducts and environment reducts sorted, static types by step count."""

    t2s = sorted(cpr_reducts(PRES_ENV, PRES_TERM))
    l2s = sorted(lpr_reducts(PRES_ENV), key=env_key)
    d = da(params, PRES_ENV, PRES_TERM)
    pairs = [(t2, l2) for t2 in t2s for l2 in l2s]
    types = [lstas(params, PRES_ENV, PRES_TERM, n) for n in range(d + 1)]
    if case == "degree":
        return [f"degree: {print_closure(l2, t2)} has degree {d + 1}, expected {d}"
                for t2, l2 in pairs if t2 == BETA]
    if case == "validity":
        return [f"validity: {print_closure(l2, t2)} is not valid"
                for t2, l2 in pairs if t2 == BETA]
    if case == "static-type":
        return [f"static type: {print_term(u1)} at {n} steps is not valid"
                for n, u1 in enumerate(types) if n > 0]
    if case in ("conv", "lstas"):
        def u2(t2, l2, n):
            return "nothing" if case == "lstas" else print_term(lstas(params, l2, t2, n))

        return [f"commutation: at {n} steps, {print_closure(l2, t2)} yields "
                f"{u2(t2, l2, n)}, not convertible with {print_term(u1)}"
                for n, u1 in enumerate(types) for t2, l2 in pairs
                if case == "conv" or t2 == BETA]
    return [f"resources at {print_closure(l2, t2)}: no normal form within 0 rounds"
            for _ in types for t2, l2 in pairs]


PRES_FLAGS = ("degree_preserved", "validity_preserved", "types_valid", "types_commute")
# Each case fakes one check, by ``validity``'s own name for what it calls,
# or starves normalization of fuel; the last item is the flag it clears.
PRES_FAULTS = {
    "degree": ("da", lambda real: lambda p, e, t: real(p, e, t) + (t == BETA),
               "degree_preserved"),
    "validity": ("snv_check", lambda real: lambda p, e, t: (
        ValidityReport(False, ("", "appl", "faked")) if t == BETA else real(p, e, t)
    ), "validity_preserved"),
    "static-type": ("snv_check", lambda real: lambda p, e, t: (
        ValidityReport(False, ("", "appl", "faked"))
        if t in {lstas(p, e, PRES_TERM, n) for n in (1, 2)} else real(p, e, t)
    ), "types_valid"),
    "conv": ("conv", lambda real: lambda *_: False, "types_commute"),
    "lstas": ("lstas", lambda real: lambda p, e, t, n: (
        None if t == BETA else real(p, e, t, n)
    ), "types_commute"),
    "resources": (None, None, "types_commute"),
}


@pytest.mark.parametrize("case", PRES_FAULTS, ids=PRES_FAULTS)
def test_preservation_flags_fail_one_at_a_time(monkeypatch, case):
    name, fake, flag = PRES_FAULTS[case]
    params = Params(fuel=0) if case == "resources" else P
    want = _lines(case, params)  # before the fake is in place
    if name is not None:
        monkeypatch.setattr(validity, name, fake(getattr(validity, name)))
    got = preservation_report(params, PRES_ENV, PRES_TERM)
    assert {f for f in PRES_FLAGS if not getattr(got, f)} == {flag}
    assert not got.all_pass
    assert len(want) >= 2 and list(got.failures) == want
