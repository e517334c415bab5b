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
"""

from __future__ import annotations

from .terms import Bind, BindKind, Env, Flat, FlatKind, Sort, Term, Var

__all__ = [
    "ParseError",
    "parse_term",
    "parse_env",
    "print_term",
    "print_env",
    "print_closure",
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
# ASCII only: str.isdigit() also holds for digits of other scripts and for
# superscripts, which int() reads differently or not at all.
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    """Malformed input; ``offset`` is the character index of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than int() converts
            raise ParseError("number too long", start) from None

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a keyword", start)
        return self.text[start : self.pos]

    def done(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)


def _term(s: _Scanner) -> Term:
    s.skip_ws()
    ch = s.peek()
    if ch == "*":
        s.pos += 1
        return Sort(s.nat())
    if ch == "#":
        s.pos += 1
        return Var(s.nat())
    if ch == "(":
        s.pos += 1
        s.skip_ws()
        at = s.pos
        head = s.word()
        try:
            ctor, kind = _ITEM_KIND[head]
        except KeyError:
            raise ParseError(f"unknown constructor {head!r}", at) from None
        side = _term(s)
        body = _term(s)
        s.expect(")")
        return ctor(kind, side, body)
    raise ParseError("expected a term", s.pos)


def parse_term(text: str) -> Term:
    s = _Scanner(text)
    t = _term(s)
    s.done()
    return t


def parse_env(text: str) -> Env:
    s = _Scanner(text)
    s.expect("[")
    entries: list[tuple[BindKind, Term]] = []
    s.skip_ws()
    if s.peek() != "]":
        while True:
            s.skip_ws()
            at = s.pos
            head = s.word()
            try:
                kind = _ENTRY_KIND[head]
            except KeyError:
                raise ParseError(f"unknown entry keyword {head!r}", at) from None
            entries.append((kind, _term(s)))
            s.skip_ws()
            if s.peek() != ";":
                break
            s.pos += 1
    s.expect("]")
    s.done()
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
