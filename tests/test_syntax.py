from __future__ import annotations

import json
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import sexpr_oracle
from genterms import envs, terms
from lamcalc import (
    Bind,
    BindKind,
    Closure,
    FlatKind,
    ParseError,
    Sort,
    Var,
    abst,
    appl,
    applv,
    append,
    length,
    parse_env,
    parse_term,
    print_env,
    print_term,
    simple,
    term_size,
    tsts,
)
from lamcalc.universe import closure_key, enumerate_closures, enumerate_terms


# --------------------------------------------------------------- structure


def test_length():
    assert length(()) == 0
    assert length(parse_env("[dec *0]")) == 1
    assert length(parse_env("[dec *0; def #0]")) == 2


def test_append():
    k = parse_env("[dec *0]")
    l = parse_env("[def *1]")
    assert append(k, ()) == k
    assert append((), l) == l
    assert print_env(append(k, l)) == "[dec *0; def *1]"


def test_env_entry_order():
    env = parse_env("[dec *0; def #0]")
    # entry 0 is the innermost, i.e. the rightmost one in the text
    assert env[0] == (BindKind.ABBR, Var(0))
    assert env[1] == (BindKind.ABST, Sort(0))


def test_applv():
    assert applv((), Var(0)) == Var(0)
    assert applv((Sort(0),), Var(0)) == parse_term("(appl *0 #0)")
    assert applv((Sort(0), Sort(1)), Var(0)) == parse_term("(appl *0 (appl *1 #0))")


def test_simple():
    assert simple(Sort(0))
    assert not simple(parse_term("(abst *0 #0)"))
    assert simple(parse_term("(appl *0 #0)"))


def test_tsts_examples():
    assert tsts(Sort(0), Sort(0))
    assert not tsts(Sort(0), Sort(1))
    assert tsts(parse_term("(appl *0 #0)"), parse_term("(appl *1 *1)"))
    assert not tsts(parse_term("(appl *0 #0)"), parse_term("(cast *0 #0)"))
    assert not tsts(parse_term("(abbr *0 #0)"), parse_term("(abst *0 #0)"))
    assert not tsts(Sort(0), Var(0))


def test_tsts_laws():
    pool = enumerate_terms(3, 1, 2)
    for t1 in pool:
        assert tsts(t1, t1)
        for t2 in pool:
            assert tsts(t1, t2) == tsts(t2, t1)


# ------------------------------------------------------------ text syntax


def test_parse_term_examples():
    assert parse_term("*3") == Sort(3)
    assert parse_term("(abst *0 #0)") == Bind(BindKind.ABST, Sort(0), Var(0))
    with pytest.raises(ParseError):
        parse_term("(appl")


def test_parse_error_offset():
    try:
        parse_term("(appl *0")
    except ParseError as e:
        assert e.offset == 8
    else:
        pytest.fail("no error raised")
    try:
        parse_term("(appl *0 #0) junk")
    except ParseError as e:
        assert e.offset == 13
    # a character index: the ideographic space is one character, three
    # bytes in UTF-8
    with pytest.raises(ParseError, match=r"trailing input \(at character 4\)") as got:
        parse_term("\u3000*0 x")
    assert got.value.offset == 4


def test_parse_rejects_garbage():
    for bad in ["", "squid", "(frob *0 #0)", "[abbr *0]", "*", "#", "(appl *0 #0))"]:
        with pytest.raises(ParseError):
            parse_term(bad)
    for bad in ["", "[", "[dec]", "[dec *0;]", "[abbr *0]", "[dec *0] x"]:
        with pytest.raises(ParseError):
            parse_env(bad)


def test_numerals_are_ascii_digits_only():
    # str.isdigit() holds for a superscript two and an Arabic-Indic three;
    # int() rejects the first and reads the second as 3.
    for bad in ["*\u00b2", "*\u0663", "#\u0663", "[dec *\u00b2]"]:
        with pytest.raises(ParseError) as got:
            (parse_env if bad.startswith("[") else parse_term)(bad)
        assert got.value.offset == next(i for i, ch in enumerate(bad) if not ch.isascii())
    assert parse_term("*0123") == Sort(123)


def test_overlong_numeral_is_a_parse_error():
    # int() refuses strings of more than 4,300 digits (Python 3.11)
    with pytest.raises(ParseError, match="number too long") as got:
        parse_term("*" + "9" * 5000)
    assert got.value.offset == 1
    assert parse_term("#" + "7" * 4000) == Var(int("7" * 4000))


@given(terms())
def test_parse_print_roundtrip(t):
    assert parse_term(print_term(t)) == t


@given(envs())
def test_parse_print_env_roundtrip(env):
    assert parse_env(print_env(env)) == env


def test_print_canonical_whitespace():
    noisy = "  ( appl  *0\n\t#1 )  "
    assert print_term(parse_term(noisy)) == "(appl *0 #1)"
    assert print_env(parse_env(" [ dec  *0 ;  def #0 ] ")) == "[dec *0; def #0]"


def test_flat_kinds_appl_vs_cast():
    assert parse_term("(appl *0 #0)").kind == FlatKind.APPL
    assert parse_term("(cast *0 #0)").kind == FlatKind.CAST
    assert print_term(abst(Sort(0), appl(Var(0), Var(0)))) == "(abst *0 (appl #0 #0))"


def test_nesting_is_bounded_and_needs_no_recursion_limit():
    """Parsing runs on its own stack: 10,000 nested items parse at the
    default recursion limit, and nesting beyond ``MAX_NESTING`` is refused
    before a term exists, since hashing a term that deep crashes CPython.
    The CLI answers such a text with one JSON line and exit code 3."""

    probe = """
import io, json, sys
from lamcalc import Sort, Var, abst, appl, parse_term
from lamcalc.cli import run
from lamcalc.sexpr import MAX_NESTING
def text(n):
    return "(appl *0 " * (n - 1) + "(abst *1 #0)" + ")" * (n - 1)
def chain(n):
    t = abst(Sort(1), Var(0))
    for _ in range(n - 1):
        t = appl(Sort(0), t)
    return t
def refused(n):
    try:
        parse_term(text(n))
    except RecursionError:
        return True
    return False
out = io.StringIO()
code = run(["parse", text(200_000)], out=out)
print(json.dumps([
    sys.getrecursionlimit(),
    hash(parse_term(text(10_000))) == hash(chain(10_000)),
    refused(MAX_NESTING),
    refused(MAX_NESTING + 1),
    refused(200_000),
    code,
    out.getvalue().splitlines(),
]))
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        timeout=60,
    )
    error = '"nesting too deep: more than 20000 nested items"'
    assert json.loads(done.stdout) == [
        1000, True, False, True, True, 3,
        ['{"error": ' + error + ', "ok": false, "result": null}'],
    ]


# The characters of the grammar, and as often one of four that tell
# str.isalpha(), str.isdigit() and str.isspace() apart from their ASCII and
# regular-expression cousins: a letter, a superscript two, an Arabic-Indic
# three and an ideographic space.
_NOISE = st.one_of(
    st.sampled_from("()[]; *#0123456789\t\nabbrstpplcadef"),
    st.sampled_from("\u00e9\u00b2\u0663\u3000"),
)
_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 2**16),
              _NOISE),
    max_size=4,
)


@st.composite
def _mangled(draw) -> tuple[bool, str]:
    """A printed term or environment after a few random edits."""

    is_env = draw(st.booleans())
    chars = list(print_env(draw(envs())) if is_env else print_term(draw(terms())))
    for edit, where, ch in draw(_EDITS):
        at = where % (len(chars) + 1)  # about uniform, unlike a drawn float
        if edit == "insert":
            chars.insert(at, ch)
        elif at < len(chars):
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = ch
    return is_env, "".join(chars)


def _outcome(parse, text: str):
    try:
        return repr(parse(text))
    except ParseError as e:
        return str(e), e.offset


@settings(max_examples=300)
@given(_mangled())
@example((False, "(abst\u00b2 *0 #0)"))
@example((True, "[\u00b2]"))
@example((False, "*\u0663"))
@example((False, "#0\u0663"))
@example((True, "[\u3000dec\u3000*0\u3000]\u3000"))
def test_parser_agrees_with_recursive_descent_oracle(case):
    is_env, text = case
    if is_env:
        assert _outcome(parse_env, text) == _outcome(sexpr_oracle.parse_env, text)
    else:
        assert _outcome(parse_term, text) == _outcome(sexpr_oracle.parse_term, text)


# ------------------------------------------------------------- enumeration
#
# Counting oracle, independent of the enumerator: builds concrete term
# strings straight from the grammar and counts them.


def _oracle_term_strings(size: int, max_sort: int, max_ref: int) -> list[str]:
    if size < 1:
        return []
    if size == 1:
        return [f"*{k}" for k in range(max_sort + 1)] + [f"#{i}" for i in range(max_ref)]
    out = []
    for left in range(1, size - 1):
        for a in _oracle_term_strings(left, max_sort, max_ref):
            for b in _oracle_term_strings(size - 1 - left, max_sort, max_ref):
                for op in ("abbr", "abst", "appl", "cast"):
                    out.append(f"({op} {a} {b})")
    return out


def _oracle_count(max_term_size: int, max_env_len: int, max_sort: int) -> int:
    max_ref = max_env_len + max_term_size
    n_terms = sum(
        len(_oracle_term_strings(s, max_sort, max_ref)) for s in range(1, max_term_size + 1)
    )
    n_entries = 2 * len(_oracle_term_strings(1, max_sort, max_ref))  # size 2 is impossible
    n_envs = sum(n_entries**k for k in range(max_env_len + 1))
    return n_terms * n_envs


def test_enumerate_smallest():
    assert list(enumerate_closures(1, 0, 0)) == [Closure((), Sort(0)), Closure((), Var(0))]
    assert list(enumerate_closures(0, 0, 0)) == []


def test_enumerate_count_against_oracle():
    count = len(list(enumerate_closures(3, 0, 1)))
    assert count == _oracle_count(3, 0, 1) == 105


def test_enumerate_acceptance_universe_count():
    count = len(list(enumerate_closures(4, 2, 1)))
    assert count == _oracle_count(4, 2, 1) == 72072


@pytest.mark.parametrize("size,envlen,maxsort", [(3, 1, 1), (3, 2, 1), (3, 1, 2)])
def test_enumerate_ordered_and_within_bounds(size, envlen, maxsort):
    seen = list(enumerate_closures(size, envlen, maxsort))
    keys = [closure_key(c) for c in seen]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for env, t in seen:
        assert term_size(t) <= size
        assert len(env) <= envlen
        for _, w in env:
            assert term_size(w) <= 2

    def atoms_ok(t) -> bool:
        match t:
            case Sort(k):
                return k <= maxsort
            case Var(i):
                return i < envlen + size
            case _:
                return atoms_ok(t.side) and atoms_ok(t.body)

    assert all(atoms_ok(t) and all(atoms_ok(w) for _, w in env) for env, t in seen)
