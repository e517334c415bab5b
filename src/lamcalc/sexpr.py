"""Text syntax for terms and environments.

    term  :=  '*' nat | '#' nat
            | '(' ('abbr' | 'abst' | 'appl' | 'cast') term term ')'
    env   :=  '[' (entry (';' entry)*)? ']'
    entry :=  ('def' | 'dec') term

Whitespace may appear between tokens.  Environments are written outermost
entry first, so ``#0`` refers to the rightmost entry of the bracket.
Printing produces the canonical spacing, and parsing a printed value gives
back the original one.  A closure prints as ``<env> |- <term>``, the form
every report and counterexample uses.

Parsing splits the text into tokens in one regular-expression pass, then
builds the value in one loop over the tokens with an explicit stack, so it
needs no recursion.  Each item is built by its constructor, which returns
the one object of its value.  Nesting deeper than ``MAX_NESTING`` items
raises ``RecursionError``, which the command line answers with exit code
3.  The character offset of a ``ParseError`` is worked out only once
parsing has failed.
"""

from __future__ import annotations

import re
from itertools import islice

from .terms import Bind, BindKind, Env, Flat, FlatKind, Sort, Term, Var

__all__ = [
    "ParseError",
    "parse_term",
    "parse_env",
    "print_term",
    "print_env",
]

_ITEM_KIND = {
    "abbr": (Bind, BindKind.ABBR),
    "abst": (Bind, BindKind.ABST),
    "appl": (Flat, FlatKind.APPL),
    "cast": (Flat, FlatKind.CAST),
}
_ENTRY_KIND = {"def": BindKind.ABBR, "dec": BindKind.ABST}
# Printing inverts the two tables above.  Each constructor's keywords are
# listed by kind, so printing an item costs one dict lookup.
_ITEM_WORDS = {
    ctor: tuple(w for _, w in sorted((k, w) for w, (c, k) in _ITEM_KIND.items()
                                     if c is ctor))
    for ctor in (Bind, Flat)
}
_ENTRY_WORD = {kind: word for word, kind in _ENTRY_KIND.items()}

_ATOMS = {"*": Sort, "#": Var}
# One token per bracket, semicolon or atom, and per run of other
# characters that are not whitespace.  ``\s`` matches exactly what
# str.isspace() accepts.  Numerals are ASCII digits only: str.isdigit()
# also holds for digits of other scripts and for superscripts, which int()
# reads differently or not at all.  Keywords come from the tables above.
_TOKEN = re.compile(r"[()\[\];]|[*#][0-9]*|[^\s()\[\];*#]+")
# Items nested deeper than this are refused with RecursionError before the
# term exists: hashing a nested tuple recurses in C without a guard.
MAX_NESTING = 20_000


class ParseError(ValueError):
    """Malformed input; ``offset`` is the character index of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


def _start(text: str, j: int) -> int:
    """The character offset where token ``j`` starts: the failure path."""

    at = next(islice(_TOKEN.finditer(text), j, None), None)
    return len(text) if at is None else at.start()


def _keyword_error(text: str, j: int, table: dict, unknown: str) -> ParseError:
    """Why token ``j`` is not a keyword of ``table``.

    The keyword is the longest run of letters (``str.isalpha``) at the
    token's start; a known keyword glued to more of the token leaves that
    rest where a term should be.
    """

    at = end = _start(text, j)
    while end < len(text) and text[end].isalpha():
        end += 1
    head = text[at:end]
    if not head:
        return ParseError("expected a keyword", at)
    if head not in table:
        return ParseError(f"{unknown} {head!r}", at)
    return ParseError("expected a term", end)


def _atom(text: str, toks: list[str], j: int) -> Term:
    """The sort or reference that token ``j`` spells."""

    tok = toks[j]
    ctor = _ATOMS.get(tok[:1])
    if ctor is None:
        raise ParseError("expected a term", _start(text, j))
    if len(tok) == 1:
        raise ParseError("expected a number", _start(text, j) + 1)
    try:
        return ctor(int(tok[1:]))
    except ValueError:  # longer than int() converts
        raise ParseError("number too long", _start(text, j) + 1) from None


def _term(text: str, toks: list[str], i: int,
          atoms: dict[str, Term]) -> tuple[Term, int]:
    """The term whose first token is ``toks[i]``, and the index after it.

    ``stack`` holds each open item's constructor and kind (a plain tuple,
    from ``_ITEM_KIND``), followed by its side once the item reads its
    body.  ``atoms`` shares each atom among its occurrences in one parse.
    """

    stack: list = []
    depth = 0
    while True:
        tok = toks[i]
        i += 1
        if tok == "(":
            head = _ITEM_KIND.get(toks[i])
            if head is None:
                raise _keyword_error(text, i, _ITEM_KIND, "unknown constructor")
            i += 1
            depth += 1
            if depth > MAX_NESTING:
                raise RecursionError(f"more than {MAX_NESTING} nested items")
            stack.append(head)
            continue
        term = atoms.get(tok)
        if term is None:
            term = atoms[tok] = _atom(text, toks, i - 1)
        while stack:
            if type(stack[-1]) is tuple:  # a head: the term is its side
                stack.append(term)
                break
            if toks[i] != ")":
                raise ParseError("expected ')'", _start(text, i))
            i += 1
            depth -= 1
            side = stack.pop()
            ctor, kind = stack.pop()
            term = ctor(kind, side, term)
        else:
            return term, i


def _tokens(text: str) -> list[str]:
    # the empty string marks the end of the text, and matches nothing
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


def parse_term(text: str) -> Term:
    toks = _tokens(text)
    t, i = _term(text, toks, 0, {})
    if toks[i]:
        raise ParseError("trailing input", _start(text, i))
    return t


def parse_env(text: str) -> Env:
    toks = _tokens(text)
    if toks[0] != "[":
        raise ParseError("expected '['", _start(text, 0))
    entries: list[tuple[BindKind, Term]] = []
    atoms: dict[str, Term] = {}
    i = 1
    if toks[i] != "]":
        while True:
            kind = _ENTRY_KIND.get(toks[i])
            if kind is None:
                raise _keyword_error(text, i, _ENTRY_KIND, "unknown entry keyword")
            side, i = _term(text, toks, i + 1, atoms)
            entries.append((kind, side))
            if toks[i] != ";":
                break
            i += 1
    if toks[i] != "]":
        raise ParseError("expected ']'", _start(text, i))
    if toks[i + 1]:
        raise ParseError("trailing input", _start(text, i + 1))
    # The text lists outermost first; internally entry 0 is innermost.
    return tuple(reversed(entries))


def print_term(t: Term) -> str:
    cls = type(t)
    if cls is Bind or cls is Flat:
        _, kind, side, body = t
        return f"({_ITEM_WORDS[cls][kind]} {print_term(side)} {print_term(body)})"
    if cls is Var:
        return f"#{t[1]}"
    if cls is Sort:
        return f"*{t[1]}"
    raise TypeError(f"not a term: {t!r}")


def print_env(env: Env) -> str:
    parts = [f"{_ENTRY_WORD[kind]} {print_term(side)}" for kind, side in reversed(env)]
    return "[" + "; ".join(parts) + "]"


def print_closure(env: Env, term: Term) -> str:
    """A closure as ``<env> |- <term>``."""

    return f"{print_env(env)} |- {print_term(term)}"
