"""Certificates and successor sets reused across certifier calls: no
report, cycle or budget failure may depend on what the memo tables hold
or on the order of the calls."""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lamcalc import (
    BindKind,
    BudgetExceeded,
    Closure,
    FuelExhausted,
    Params,
    Term,
    aaa,
    clear_caches,
    parse_env,
    parse_term,
)
from lamcalc import arity, bigtree, extended, memo, reduction
from lamcalc.bigtree import BigTreeReport, _fpb_holds, fsb_certify
from lamcalc.extended import (
    Cycle,
    SnReport,
    cpx_holds,
    cpx_reducts,
    csx_certify,
    frees_indices,
    lleq_holds,
    lpx_reducts,
)
from lamcalc.props import SUITES, run_suite
from lamcalc.reduction import cpr_full, normalize
from lamcalc.statics import da, lstas
from lamcalc.universe import enumerate_closures, env_key

P = Params()

OMEGA = parse_term("(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))")
OMEGA_K = parse_term(
    "(appl (abst *0 (appl *1 (appl #0 #0))) (abst *0 (appl *1 (appl #0 #0))))"
)

# The cycles the certifiers report for the loops: the scan finds both.
OMEGA_CYCLE = Cycle(
    (OMEGA, parse_term("(abbr (cast *0 (abst *0 (appl #0 #0))) (appl #0 #0))"))
)
_DELTA_K = parse_env("[def (abst *0 (appl *1 (appl #0 #0)))]")
OMEGA_K_CYCLE = Cycle(
    tuple(
        Closure(_DELTA_K, parse_term(t))
        for t in (
            "(appl *1 (appl #0 #0))",
            "(appl #0 #0)",
            "(appl #0 (abst *0 (appl *1 (appl #0 #0))))",
            "(abbr (cast *0 #0) (appl *1 (appl #0 #0)))",
        )
    )
)

# Typed closures at the release gate's bounds (size 4, environments of
# length 2, sorts 0..1): two runs of neighbours, which share subgraphs,
# and a spread over the rest.
TYPED = [c for c in enumerate_closures(4, 2, 1) if aaa(*c) is not None]
SAMPLE = TYPED[1000:1030] + TYPED[5000:5030] + TYPED[::151]


def _reports(closures) -> dict:
    return {c: (fsb_certify(P, *c), csx_certify(P, *c)) for c in closures}


def test_reports_do_not_depend_on_call_order():
    clear_caches()
    forward = _reports(SAMPLE)
    assert any(bigtree._SN.values()) and any(extended._SN.values())
    clear_caches()
    backward = _reports(reversed(SAMPLE))
    cold = {}
    for c in SAMPLE:
        clear_caches()
        cold.update(_reports([c]))
    assert forward == backward == cold


def test_loops_found_on_warm_tables():
    clear_caches()
    cold = csx_certify(P, (), OMEGA), fsb_certify(P, (), OMEGA_K)
    clear_caches()
    _reports(SAMPLE[::4])
    # the loops' halves are strongly normalizing: their graphs, certified
    # first, hold the closures and terms around the loops
    for half in ("(abst *0 (appl #0 #0))", "(abst *0 (appl *1 (appl #0 #0)))"):
        _reports([((), parse_term(half))])
    assert (csx_certify(P, (), OMEGA), fsb_certify(P, (), OMEGA_K)) == cold

    got = csx_certify(P, (), OMEGA)
    assert got == OMEGA_CYCLE
    loop = list(got.path) + [got.path[0]]
    for a, b in zip(loop, loop[1:]):
        assert a != b and cpx_holds(P, (), a, b)

    got = fsb_certify(P, (), OMEGA_K)
    assert got == OMEGA_K_CYCLE
    loop = list(got.path) + [got.path[0]]
    for a, b in zip(loop, loop[1:]):
        assert a != b and _fpb_holds(P, a, b)


def _outcome(certify, params, env, term):
    try:
        return certify(params, env, term)
    except BudgetExceeded as e:
        return ("raised", str(e))


@pytest.mark.parametrize(
    "certify, loop", [(fsb_certify, OMEGA_K), (csx_certify, OMEGA)]
)
def test_budget_holds_on_warm_tables(certify, loop):
    for env, t in SAMPLE[::10] + [((), loop)]:
        for budget in (1, 2, 5, 12):
            tiny = Params(budget=budget)
            clear_caches()
            cold = _outcome(certify, tiny, env, t)
            certify(P, env, t)
            assert _outcome(certify, tiny, env, t) == cold, (env, t, budget)
    clear_caches()
    certify(P, (), parse_term("(abst *1 #0)"))
    with pytest.raises(BudgetExceeded):
        certify(Params(budget=5), (), parse_term("(abst *1 #0)"))


def test_skipping_the_scan_changes_no_answer(monkeypatch):
    """Typed and untyped gate closures, at the default budget and at tiny
    ones: each answer, report, cycle or budget failure, is the one a full
    cycle scan before the walk gives."""

    pool = list(enumerate_closures(4, 2, 1))
    rng = random.Random(15)
    untyped = [c for c in pool if aaa(*c) is None]
    cases = [
        (certify, env, t)
        for env, t in rng.sample(TYPED, 20) + rng.sample(untyped, 20)
        for certify in (fsb_certify, csx_certify)
    ] + [(fsb_certify, (), OMEGA_K), (csx_certify, (), OMEGA)]
    params = [P] + [Params(budget=b) for b in (1, 2, 5, 12)]

    def answers():
        clear_caches()
        return [_outcome(f, p, env, t) for f, env, t in cases for p in params]

    skipped = answers()
    assert any(isinstance(a, (BigTreeReport, SnReport)) for a in skipped)
    assert any(isinstance(a, Cycle) for a in skipped)
    assert any(a[0] == "raised" for a in skipped if isinstance(a, tuple))
    # every root looks untyped, so each one is scanned to full depth
    monkeypatch.setattr(bigtree, "aaa", lambda env, term: None)
    monkeypatch.setattr(extended, "aaa", lambda env, term: None)
    assert answers() == skipped


def test_cold_typed_roots_never_scan(monkeypatch):
    def unused(*_):
        raise AssertionError("a typed root should be certified by its walk")

    monkeypatch.setattr(bigtree, "_closure_seq_steps", unused)
    monkeypatch.setattr(extended, "_seq_steps", unused)
    for env, t in SAMPLE[::7]:
        clear_caches()
        assert isinstance(fsb_certify(P, env, t), BigTreeReport)
        assert isinstance(csx_certify(P, env, t), SnReport)


def test_clear_caches_covers_every_memo_table():
    """Every module-level dict or set that is empty straight after import,
    and every ``lru_cache`` function, is a listed memo table; all are
    emptied."""

    probe = """
import importlib, json, pkgutil, sys
import lamcalc
from lamcalc import memo
for m in pkgutil.iter_modules(lamcalc.__path__):
    importlib.import_module("lamcalc." + m.name)
registered = {id(t) for t in memo.TABLES}
missing = []
for name, module in sorted(sys.modules.items()):
    if name.startswith("lamcalc."):
        for attr, obj in vars(module).items():
            empty = type(obj) in (dict, set) and not obj
            lru = callable(getattr(obj, "cache_clear", None))
            if (empty or lru) and id(obj) not in registered:
                missing.append(name + "." + attr)
print(json.dumps(missing))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == []

    fsb_certify(P, (), parse_term("(abst *1 #0)"))
    csx_certify(P, (), parse_term("(abst *1 #0)"))
    clear_caches()
    for table in memo.TABLES:
        info = getattr(table, "cache_info", None)
        assert (info().currsize if info else len(table)) == 0


def test_certifiers_leave_no_cyclic_garbage(monkeypatch):
    """Certificates, cycles, budget failures and a raising ``closes`` all
    free what the certifiers built by reference counting alone."""

    def closes(*_):
        raise RuntimeError("closes")

    small = Params(budget=300)
    clear_caches()
    gc.collect()
    gc.disable()
    try:
        for certify in (fsb_certify, csx_certify):
            certify(P, *TYPED[1000])
            assert isinstance(certify(P, (), OMEGA), Cycle)
        assert isinstance(fsb_certify(P, (), OMEGA_K), Cycle)
        with pytest.raises(BudgetExceeded):
            csx_certify(small, (), OMEGA_K)
        monkeypatch.setattr(bigtree, "_fpb_holds", closes)
        monkeypatch.setattr(extended, "_step_to", closes)
        clear_caches()
        for certify in (fsb_certify, csx_certify):
            with pytest.raises(RuntimeError):
                certify(P, (), OMEGA)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reimport_frees_the_previous_import():
    """After twenty fresh imports and a collection, no function or class
    of an earlier import is still alive."""

    probe = """
import gc, importlib, json, sys, weakref
old = []
for _ in range(20):
    for name in [m for m in sys.modules if m == "lamcalc" or m.startswith("lamcalc.")]:
        del sys.modules[name]
    importlib.import_module("lamcalc")
    arity, reduction, relocation = (
        importlib.import_module("lamcalc." + n)
        for n in ("arity", "reduction", "relocation")
    )
    kept = (reduction.normalize, arity.aaa, relocation.lift, arity.Base)
    old.append([weakref.ref(x) for x in kept])
    del arity, reduction, relocation, kept
gc.collect()
print(json.dumps([r().__qualname__ for refs in old[:-1] for r in refs if r()]))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == []


# --- cold and warm tables


CLOSURES = list(enumerate_closures(3, 2, 1))

QUERIES = {
    "lstas": lambda env, t, k: lstas(P, env, t, k % 4),
    "da": lambda env, t, k: da(P, env, t),
    "aaa": lambda env, t, k: aaa(env, t),
    "cpx_reducts": lambda env, t, k: cpx_reducts(Params(budget=k), env, t),
    "cpr_full": lambda env, t, k: cpr_full(env, t),
    "normalize": lambda env, t, k: normalize(env, t, k // 4),
    "lleq_holds": lambda env, t, k: _lleq(env, t, k),
    "cpx_holds": lambda env, t, k: _cpx(env, t, k),
    "frees_indices": lambda env, t, k: frees_indices(k % 3, env, t, k % 5),
    "fsb_certify": lambda env, t, k: fsb_certify(Params(budget=k), env, t),
    "csx_certify": lambda env, t, k: csx_certify(Params(budget=k), env, t),
}


def _lleq(env, t, k):
    envs = sorted(lpx_reducts(P, env), key=env_key)
    return lleq_holds(k % 3, t, env, envs[k % len(envs)])


def _cpx(env, t, k):
    # a target one or two steps away, so that some answers are False
    one = cpx_reducts(P, env, t)
    two = sorted(one.union(*(cpx_reducts(P, env, r) for r in one)))
    return cpx_holds(P, env, t, two[k % len(two)])


def _answer(name, env, t, k):
    try:
        return QUERIES[name](env, t, k)
    except (BudgetExceeded, FuelExhausted) as e:
        return ("raised", type(e).__name__, str(e))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(QUERIES)),
            st.integers(0, len(CLOSURES) - 1),
            st.integers(1, 12),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_warm_tables_answer_as_cold_ones(calls):
    """A run of queries in any order answers each one as it would from
    empty tables, also right after the same query at the largest budget
    and fuel."""

    clear_caches()
    warm = []
    for name, n, k in calls:
        _answer(name, *CLOSURES[n], 12)
        warm.append(_answer(name, *CLOSURES[n], k))
    cold = []
    for name, n, k in calls:
        clear_caches()
        cold.append(_answer(name, *CLOSURES[n], k))
    assert warm == cold


def test_fuel_holds_on_warm_tables():
    t = parse_term("(cast *0 (cast *0 *1))")
    clear_caches()
    with pytest.raises(FuelExhausted):
        normalize((), t, 0)
    assert normalize((), t) == parse_term("*1")
    with pytest.raises(FuelExhausted):
        normalize((), t, 0)


def _is_env(key) -> bool:
    return type(key) is tuple and all(
        type(e) is tuple
        and len(e) == 2
        and isinstance(e[0], BindKind)
        and isinstance(e[1], Term)
        for e in key
    )


def _tuple_keys(table):
    for key, value in table.items():
        if isinstance(key, tuple):
            yield key
        if isinstance(value, dict):
            yield from _tuple_keys(value)


def test_memo_tables_hold_no_key_tuple_per_entry():
    """After a small sweep, every tuple key of every memo table, at every
    level, is a term, an environment, a closure or a tuple of ints: no
    table keys an entry by a tuple of its arguments.  And no judgment
    keyed by an environment holds a term that reads nothing of its
    environment under any environment but ``()``."""

    clear_caches()
    for name in SUITES:
        run_suite(name, P, 2, 2, 0)
    # no suite asks the step matcher, so ask it what lazy equivalence transfers
    for env, t in enumerate_closures(2, 2, 0):
        for env2 in lpx_reducts(P, env):
            for t2 in cpx_reducts(P, env2, t):
                cpx_holds(P, env, t, t2)
    assert all(memo.TABLES)
    bad = [
        key
        for table in memo.TABLES
        for key in _tuple_keys(table)
        if not (
            isinstance(key, (Term, Closure))
            or _is_env(key)
            or all(type(x) is int for x in key)
        )
    ]
    assert bad == []

    shared = [
        (name, env, term)
        for name, table, above in _BY_ENV
        for env, terms in _env_levels(table, above)
        if env
        for term in terms
        if all(i >= len(env) for i in frees_indices(0, (), term, 1 << 30))
    ]
    assert shared == []


# The tables of the judgments keyed by an environment, each with the
# number of dict levels above its environments.
_BY_ENV = [
    ("reduction._ONE_STEP", reduction._ONE_STEP, 1),
    ("reduction._FULL", reduction._FULL, 0),
    ("arity._AAA", arity._AAA, 0),
    ("extended._STEP", extended._STEP, 1),
    ("extended._FREES", extended._FREES, 1),
]


def _env_levels(table, above):
    levels = [table]
    for _ in range(above):
        levels = [inner for level in levels for inner in level.values()]
    for level in levels:
        yield from level.items()
