"""Terms as tagged tuples: order, equality, hashing, representation and
the one shared object per term value.

The order checks compare against an independent oracle: the recursive
key that built the term order by hand before terms became tuples.
"""

from __future__ import annotations

import ast
import copy
import gc
import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import lamcalc
from genterms import terms as gen_terms
from lamcalc import (
    Bind,
    BindKind,
    Closure,
    Flat,
    FlatKind,
    Params,
    Sort,
    Var,
    aaa,
    abbr,
    abst,
    appl,
    cast,
    clear_caches,
    cnx_holds,
    cpr_full,
    cpr_reducts,
    cpx_holds,
    cpx_reducts,
    csx_certify,
    da,
    delift,
    fpb_successors,
    fpbq_holds,
    fqu_children,
    fquq_holds,
    frees_holds,
    frees_indices,
    lift,
    lleq_holds,
    llor,
    lstas,
    lsubr_holds,
    normalize,
    parse_term,
    print_term,
    snv_check,
    term_size,
    tsts,
)
from lamcalc.terms import _INTERN, closure_measure
from lamcalc.universe import (
    closure_key,
    enumerate_closures,
    enumerate_envs,
    enumerate_terms,
    env_key,
)


def oracle_term_key(t) -> tuple:
    match t:
        case Sort(k):
            return (0, k)
        case Var(i):
            return (1, i)
        case Bind(kind, side, body):
            return (2, int(kind), oracle_term_key(side), oracle_term_key(body))
        case Flat(kind, side, body):
            return (3, int(kind), oracle_term_key(side), oracle_term_key(body))
    raise TypeError(f"not a term: {t!r}")


def oracle_env_key(env) -> tuple:
    return (len(env), tuple((int(kind), oracle_term_key(side)) for kind, side in env))


def oracle_closure_key(c) -> tuple:
    return (*oracle_env_key(c.env), oracle_term_key(c.term))


def shuffled(items: list, seed: int = 7) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# ------------------------------------------------------------------- order


@pytest.mark.parametrize("max_size", [4, 5])
def test_term_order_matches_oracle(max_size):
    every = enumerate_terms(max_size, 1, 6)
    ts = shuffled(every)
    assert sorted(ts) == sorted(ts, key=oracle_term_key) == every


def test_env_order_matches_oracle():
    envs = shuffled(enumerate_envs(2, 2, 1, 6))
    assert len(envs) == 273
    assert sorted(envs, key=env_key) == sorted(envs, key=oracle_env_key)


def test_closure_order_matches_oracle():
    closures = random.Random(2).sample(list(enumerate_closures(4, 2, 1)), 5000)
    assert sorted(closures, key=closure_key) == sorted(closures, key=oracle_closure_key)


# ------------------------------------------------------- equality and hash


@pytest.mark.parametrize("i", range(4))
def test_atoms_differ_across_constructors(i):
    assert Sort(i) != Var(i)
    assert Var(i) != Sort(i)


@pytest.mark.parametrize("value", [0, 1])
def test_binders_differ_from_flat_items(value):
    side, body = Sort(0), Var(0)
    b = Bind(BindKind(value), side, body)
    f = Flat(FlatKind(value), side, body)
    assert BindKind(value) == FlatKind(value)  # equal kind values ...
    assert b != f and f != b  # ... yet never equal terms
    assert len({b, f}) == 2


@pytest.mark.parametrize(
    "text",
    ["*0", "#3", "(abst *1 #0)", "(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))"],
)
def test_equal_terms_built_twice_hash_equal(text):
    t1, t2 = parse_term(text), parse_term(text)
    assert t1 is t2
    assert t1 == t2 and hash(t1) == hash(t2)
    rebuilt = type(t1)(*t1[1:])
    assert rebuilt == t1 and hash(rebuilt) == hash(t1)


def test_copy_and_pickle_rebuild_the_same_term():
    t = parse_term("(abbr (cast *0 #1) (appl #0 (abst *1 #0)))")
    pickled = [
        pickle.loads(pickle.dumps(t, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in (copy.copy(t), copy.deepcopy(t), *pickled):
        assert clone is t
        assert clone.body.body.body == Var(0)


# ------------------------------------------------------------ canonicity


def rebuild(t):
    """``t`` built anew through the constructors, from its atoms up, each
    kind passed as a plain int."""

    cls = type(t)
    if cls is Bind or cls is Flat:
        return cls(int(t.kind), rebuild(t.side), rebuild(t.body))
    return cls(t[1])


@given(gen_terms(), st.integers(0, 2), st.integers(0, 2), st.integers(0, 10**6))
def test_equal_terms_are_one_object(drawn, l, m, j):
    """Within one cache generation the constructors, the parser, the
    relocations, the reduct sets and the enumeration all give the one
    object of each term value.  A term kept across ``clear_caches()`` is
    no longer that object, yet still equals and hashes like it."""

    clear_caches()
    t = rebuild(drawn)
    assert t == drawn and rebuild(t) is t
    assert parse_term(print_term(t)) is t
    up = lift(l, m, t)
    assert rebuild(up) is up and lift(l, m, t) is up
    assert delift(l, m, up) is t
    for r in cpr_reducts((), t):
        assert rebuild(r) is r
    every = enumerate_terms(3, 3, 5)
    u = every[j % len(every)]
    assert rebuild(u) is u and parse_term(print_term(u)) is u
    assert {e: e for e in every}.get(t, t) is t
    clear_caches()
    twin = rebuild(t)
    assert twin == t and hash(twin) == hash(t) and twin is not t
    assert parse_term(print_term(t)) is twin


@pytest.mark.parametrize("member_first", [False, True])
@pytest.mark.parametrize("member", [*BindKind, *FlatKind])
def test_a_term_does_not_depend_on_which_twin_came_first(member, member_first):
    """A kind passed as a plain int and one passed as its enum member give
    the same term, which stores the member, whichever was built first."""

    ctor = Bind if isinstance(member, BindKind) else Flat
    kinds = [member, int(member)] if member_first else [int(member), member]
    clear_caches()
    built = [ctor(kind, Sort(0), Var(0)) for kind in kinds]
    assert built[0] is built[1]
    assert type(built[0].kind) is type(member) and built[0].kind is member
    assert repr(built[0]) == f"{ctor.__name__}(kind={member!r}, side=Sort(k=0), body=Var(i=0))"


def test_intern_keys_are_plain_ints_the_collector_untracks():
    """Every key of the intern table is a tuple of plain ints, so the
    cyclic collector stops tracking it (see ``lamcalc.memo``)."""

    clear_caches()
    enumerate_terms(3, 1, 2)
    rebuild(parse_term("(cast (abbr *0 #0) (appl #1 (abst *1 #0)))"))
    gc.collect()
    keys = list(_INTERN)
    assert len(keys) > 50
    assert all(type(key) is tuple and {type(x) for x in key} == {int} for key in keys)
    assert not any(gc.is_tracked(key) for key in keys)


def test_the_intern_table_is_a_memo_table_empty_after_import():
    """Straight after every submodule is imported the intern table is
    empty, so the benchmark's ``MemoTables`` (``perfbench/coldstart.py``,
    read here without writing bytecode) finds it and empties it between
    rounds; it is listed in ``memo.TABLES`` and ``clear_caches`` empties
    it."""

    probe = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import coldstart
import lamcalc
for m in pkgutil.iter_modules(lamcalc.__path__):
    importlib.import_module("lamcalc." + m.name)
from lamcalc import memo, terms
empty = len(terms._INTERN)
found = [mod + "." + attr for mod, attr, obj in coldstart.MemoTables().tables
         if obj is terms._INTERN]
listed = [table is terms._INTERN for table in memo.TABLES].count(True)
lamcalc.parse_term("(abst *1 #0)")
built = len(terms._INTERN)
lamcalc.clear_caches()
print(json.dumps([empty, found, listed, built, len(terms._INTERN)]))
"""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    done = subprocess.run(
        [sys.executable, "-B", "-c", probe, str(perfbench)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == [0, ["terms._INTERN"], 1, 3, 0]


# -------------------------------------------------------------- structure


@pytest.mark.parametrize(
    "term, fields",
    [
        (Sort(1), ("k",)),
        (Var(2), ("i",)),
        (Bind(BindKind.ABST, Sort(0), Var(0)), ("kind", "side", "body")),
        (Flat(FlatKind.CAST, Sort(0), Var(0)), ("kind", "side", "body")),
    ],
)
def test_fields_are_read_only(term, fields):
    assert term.__match_args__ == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(term, name, getattr(term, name))
    with pytest.raises(AttributeError):
        term.extra = 0


def test_class_patterns_match_positionally_and_by_keyword():
    t = appl(Var(0), abst(Sort(1), Var(0)))
    match t:
        case Flat(FlatKind.APPL, Var(i), Bind(kind, Sort(k), body)):
            assert (i, kind, k, body) == (0, BindKind.ABST, 1, Var(0))
        case _:
            pytest.fail("positional pattern did not match")
    match t:
        case Flat(kind=FlatKind.APPL, side=Var(i=i), body=Bind(kind=kind, side=Sort(k=k))):
            assert (i, kind, k) == (0, BindKind.ABST, 1)
        case _:
            pytest.fail("keyword pattern did not match")
    match t:
        case Bind() | Sort() | Var():
            pytest.fail("matched the wrong constructor")
        case Flat(kind=FlatKind.CAST):
            pytest.fail("matched the wrong kind")


def test_repr_of_each_constructor():
    assert repr(Sort(0)) == "Sort(k=0)"
    assert repr(Var(3)) == "Var(i=3)"
    assert repr(Bind(BindKind.ABBR, Sort(1), Var(0))) == (
        "Bind(kind=<BindKind.ABBR: 0>, side=Sort(k=1), body=Var(i=0))"
    )
    assert repr(Flat(FlatKind.APPL, Var(1), Sort(0))) == (
        "Flat(kind=<FlatKind.APPL: 0>, side=Var(i=1), body=Sort(k=0))"
    )


# ------------------------------------------------------------- deep terms


def test_deep_term_hashes_at_the_default_recursion_limit():
    """A chain nested 10,000 deep, built with the constructors, can be
    hashed and put in a set, in a fresh process at the default limit."""

    probe = """
import json, sys
from lamcalc import Sort, Var, abst, appl
def chain(n):
    t = abst(Sort(1), Var(0))
    for _ in range(n):
        t = appl(Sort(0), t)
    return t
t = chain(10_000)
print(json.dumps([sys.getrecursionlimit(), hash(t) == hash(chain(10_000)), t in {t}]))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [1000, True, True]


def test_deep_equal_terms_compare_at_the_default_recursion_limit():
    """A text nested 10,000 deep, parsed twice in one cache generation,
    gives one object, so comparing the two needs no recursion."""

    probe = """
import json, sys
from lamcalc import parse_term
text = "(appl *0 " * 9_999 + "(abst *1 #0)" + ")" * 9_999
t1, t2 = parse_term(text), parse_term(text)
print(json.dumps([sys.getrecursionlimit(), t1 == t2, t1 is t2]))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [1000, True, True]


# ------------------------------------------------------------- dispatch

P = Params()

# The public entry points of the kernel functions that dispatch on a term's
# class, each called on the non-term ``x``.
REFUSERS = {
    "lift": lambda x: lift(0, 1, x),
    "delift": lambda x: delift(0, 1, x),
    "lstas": lambda x: lstas(P, (), x, 1),
    "da": lambda x: da(P, (), x),
    "aaa": lambda x: aaa((), x),
    "cpr_reducts": lambda x: cpr_reducts((), x),
    "cpr_full": lambda x: cpr_full((), x),
    "normalize": lambda x: normalize((), x),
    "cpx_reducts": lambda x: cpx_reducts(P, (), x),
    "cpx_holds": lambda x: cpx_holds(P, (), x, Sort(0)),
    "cpx_holds-target": lambda x: cpx_holds(P, (), Sort(0), x),
    "cnx_holds": lambda x: cnx_holds(P, (), x),
    "csx_certify": lambda x: csx_certify(P, (), x),
    "frees_holds": lambda x: frees_holds(0, 0, (), x),
    "frees_indices": lambda x: frees_indices(0, (), x, 1),
    "lleq_holds": lambda x: lleq_holds(0, x, (), ()),
    "llor": lambda x: llor(0, x, (), ()),
    "fqu_children": lambda x: fqu_children((), x),
    "fquq_holds": lambda x: fquq_holds(Closure((), x), Closure((), Sort(0))),
    "fpb_successors": lambda x: fpb_successors(P, (), x),
    "fpbq_holds": lambda x: fpbq_holds(P, Closure((), x), Closure((), x)),
    "tsts-left": lambda x: tsts(x, Sort(0)),
    "tsts-right": lambda x: tsts(Sort(0), x),
    "term_size": lambda x: term_size(x),
    "closure_measure": lambda x: closure_measure(Closure((), x)),
    "print_term": lambda x: print_term(x),
    "snv_check": lambda x: snv_check(P, (), x),
}

# The last one is a plain tuple shaped like ``TWIN``: it is equal to that
# term and hashes like it, so only a test of the class refuses it.
TWIN = Bind(BindKind.ABBR, Sort(0), Sort(0))
NON_TERMS = {
    "str-tuple": ("x",),
    "int": 7,
    "look-alike": (2, BindKind.ABBR, Sort(0), Sort(0)),
}


@pytest.mark.parametrize("non_term", NON_TERMS.values(), ids=NON_TERMS)
@pytest.mark.parametrize("entry", REFUSERS.values(), ids=REFUSERS)
def test_non_terms_are_refused(entry, non_term):
    """Each entry point raises on a non-term from empty memo tables, and
    again after that: a refusal is not remembered as an answer.  It raises
    once more after ``TWIN`` has filled the tables: an answer is not given
    to a tuple that only looks like the term it was stored for."""

    clear_caches()
    for _ in range(2):
        with pytest.raises(TypeError, match="not a term"):
            entry(non_term)
    entry(TWIN)
    with pytest.raises(TypeError, match="not a term"):
        entry(non_term)


@pytest.mark.parametrize("make", [abbr, abst, appl, cast])
def test_a_non_term_cannot_hide_inside_a_term(make):
    """A binder or a flat item refuses a side or a body of any class but
    the four term classes, so every part of a term is a term."""

    for non_term in NON_TERMS.values():
        for parts in ((non_term, Sort(0)), (Sort(0), non_term)):
            with pytest.raises(TypeError, match="not a term"):
                make(*parts)
    assert make(TWIN, TWIN)[2:] == (TWIN, TWIN)


def test_a_look_alike_cast_is_no_refinement():
    """The environment refinements take ``def (cast w v)`` for ``dec w``
    only when the entry is a ``Flat``, not a tuple shaped like one."""

    w, v = Sort(1), Sort(0)
    env2 = ((BindKind.ABST, w),)
    assert lsubr_holds(((BindKind.ABBR, cast(w, v)),), env2)
    look_alike = (3, FlatKind.CAST, w, v)
    assert look_alike == cast(w, v)
    assert not lsubr_holds(((BindKind.ABBR, look_alike),), env2)


# Term classes, and the one class a kernel function dispatches on that is
# not a term: class patterns on these cost an isinstance test and a
# property call per field, so the kernel tests ``type(t)`` and unpacks.
PATTERN_CLASSES = {"Sort", "Var", "Bind", "Flat", "Arrow"}
# The independent oracles keep their patterns: they are the cross-checks.
PATTERN_EXEMPT = {("props", "_lleq_recursive"), ("validity", "snv_oracle")}


def class_patterns(module: str, tree: ast.Module):
    """``(module, name, line)`` of each class pattern on a term class, the
    name being that of the top-level function or class enclosing it."""

    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.MatchClass):
                cls = node.cls
                name = cls.attr if isinstance(cls, ast.Attribute) else cls.id
                if name in PATTERN_CLASSES:
                    yield module, getattr(top, "name", "<module>"), node.lineno


def test_kernel_dispatches_without_class_patterns():
    found = set()
    for path in sorted(Path(lamcalc.__file__).parent.glob("*.py")):
        found.update(class_patterns(path.stem, ast.parse(path.read_text())))
    assert {f for f in found if f[:2] not in PATTERN_EXEMPT} == set()
    # the walk does see patterns: each oracle still has its own
    assert {f[:2] for f in found} == PATTERN_EXEMPT
