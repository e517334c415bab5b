from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given

from genterms import terms
from lamcalc import Bind, Flat, Sort, Var, parse_env, parse_term
from lamcalc.relocation import delift, drop, drops, lift, lifts, liftv, lreq
from lamcalc.universe import enumerate_closures, enumerate_envs, enumerate_terms

lm = st.tuples(st.integers(0, 4), st.integers(0, 4))


def test_lift_examples():
    assert lift(0, 1, Var(0)) == Var(1)
    assert lift(1, 5, Var(0)) == Var(0)
    assert lift(0, 2, parse_term("(appl #0 #1)")) == parse_term("(appl #2 #3)")
    # level moves under binders, not under flats
    assert lift(0, 1, parse_term("(abst *0 #0)")) == parse_term("(abst *0 #0)")
    assert lift(0, 1, parse_term("(abst *0 #1)")) == parse_term("(abst *0 #2)")
    assert lift(0, 1, parse_term("(appl #0 #0)")) == parse_term("(appl #1 #1)")


def test_delift_examples():
    assert delift(0, 1, Var(1)) == Var(0)
    assert delift(0, 1, Var(0)) is None
    t = parse_term("(abbr #2 (cast *1 #4))")
    assert delift(3, 0, t) == t


@given(lm, terms())
def test_delift_inverts_lift(c, t):
    l, m = c
    assert delift(l, m, lift(l, m, t)) == t


@given(st.integers(0, 4), terms())
def test_lift_zero_identity(l, t):
    assert lift(l, 0, t) == t


def _rebuilt(l, t, ref):
    """``t`` rebuilt node by node, each reference ``i`` at level ``l``
    mapped by ``ref(l, i)``; ``None`` when that is ``None`` anywhere."""

    match t:
        case Sort(k):
            return Sort(k)
        case Var(i):
            i2 = ref(l, i)
            return None if i2 is None else Var(i2)
        case Bind(kind, side, body) | Flat(kind, side, body):
            side2 = _rebuilt(l, side, ref)
            body2 = _rebuilt(l + 1 if type(t) is Bind else l, body, ref)
            if side2 is None or body2 is None:
                return None
            return type(t)(kind, side2, body2)


@given(lm, terms())
def test_lift_and_delift_match_a_rebuilding_reference(c, t):
    """Both equal a reference that always builds a new term, and return
    ``t`` itself exactly when no reference moves."""

    l, m = c
    lifted = _rebuilt(l, t, lambda l2, i: i + m if i >= l2 else i)
    got = lift(l, m, t)
    assert got == lifted
    assert (got is t) == (lifted == t)

    delifted = _rebuilt(
        l, t, lambda l2, i: i if i < l2 else None if i < l2 + m else i - m
    )
    got = delift(l, m, t)
    assert got == delifted
    assert (got is t) == (delifted == t)


def test_delift_against_preimage_search():
    # delift(l,m,T) is defined iff T has a lift preimage, and then it is
    # that preimage; search the preimages by brute force over a universe
    # that is closed under the relevant delifts.
    pool = enumerate_terms(3, 1, 6)
    for l in range(3):
        for m in range(3):
            lifted = {}
            for u in pool:
                lifted.setdefault(lift(l, m, u), u)
            for t in pool:
                got = delift(l, m, t)
                want = lifted.get(t)
                if m == 0:
                    assert got == t
                elif got is None:
                    assert want is None
                else:
                    assert lift(l, m, got) == t
                    assert want == got


def test_liftv():
    assert liftv(0, 1, ()) == ()
    assert liftv(0, 1, (Var(0),)) == (Var(1),)
    assert liftv(0, 1, (Var(0), Sort(2))) == (Var(1), Sort(2))


def test_lifts():
    t = parse_term("(appl #0 *1)")
    assert lifts([], t) == t
    assert lifts([(0, 1)], Var(0)) == Var(1)
    assert lifts([(0, 1), (0, 1)], Var(0)) == Var(2)


@given(lm, lm, terms())
def test_lifts_cons_law(c1, c2, t):
    assert lifts([c1, c2], t) == lifts([c2], lift(c1[0], c1[1], t))


def test_drop_examples():
    assert drop(0, 1, parse_env("[dec *0]")) == ()
    assert drop(1, 1, parse_env("[dec *0; dec #0]")) is None
    for text in ["[]", "[dec *0]", "[dec *0; def #0]"]:
        env = parse_env(text)
        for l in range(4):
            assert drop(l, 0, env) == env


def test_drop_skip_delifts_kept_entry():
    # dropping the outer entry of [dec *1; dec #1] keeps the inner entry,
    # whose reference must come down by one
    env = parse_env("[dec *1; dec #1]")
    assert drop(1, 1, env) == parse_env("[dec #0]")


def test_drop_head_law():
    for c in enumerate_closures(2, 2, 1):
        env = c.env
        n = len(env)
        for m in range(4):
            got = drop(0, m, env)
            if m <= n:
                assert got == env[m:]
                assert len(got) == n - m
            else:
                assert got is None


def _drop_recursive(l, m, env):
    """``drop`` by its recursive definition, entry by entry."""

    if l == 0:
        if m == 0:
            return env
        return _drop_recursive(0, m - 1, env[1:]) if env else None
    if not env:
        return env if m == 0 else None
    kind, side = env[0]
    side2 = delift(l - 1, m, side)
    rest = None if side2 is None else _drop_recursive(l - 1, m, env[1:])
    return None if rest is None else ((kind, side2),) + rest


def test_drop_matches_its_recursive_definition():
    for env in enumerate_envs(2, 2, 1, 3):
        for l in range(4):
            for m in range(4):
                assert drop(l, m, env) == _drop_recursive(l, m, env), (l, m, env)


def test_drops():
    env = parse_env("[dec *0]")
    assert drops([], env) == env
    assert drops([(0, 1)], env) == ()
    assert drops([(0, 1), (0, 1)], env) is None


def test_lreq_examples():
    l1 = parse_env("[dec *0]")
    assert lreq(0, 3, l1, l1)
    assert lreq(0, 0, parse_env("[dec *0]"), parse_env("[def *1]"))
    assert not lreq(0, 1, parse_env("[dec *0]"), parse_env("[dec *1]"))
    assert not lreq(0, 0, parse_env("[dec *0]"), ())  # lengths differ


def test_lreq_laws():
    pool = [c.env for c in enumerate_closures(1, 2, 1)]
    pool = list(dict.fromkeys(pool))
    for l in range(3):
        for m in range(3):
            for e1 in pool:
                assert lreq(l, m, e1, e1)
                for e2 in pool:
                    assert lreq(l, m, e1, e2) == lreq(l, m, e2, e1)
    for e1 in pool:
        for e2 in pool:
            if len(e1) == len(e2):
                assert lreq(0, len(e1), e1, e2) == (e1 == e2)


def test_lreq_transitive():
    pool = list(dict.fromkeys(c.env for c in enumerate_closures(1, 1, 1)))
    for l in range(2):
        for m in range(2):
            related = {(a, b) for a in pool for b in pool if lreq(l, m, a, b)}
            for a, b in related:
                for c in pool:
                    if (b, c) in related:
                        assert (a, c) in related
