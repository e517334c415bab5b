"""The independent parser oracle: character-by-character recursive descent.

This is the parser ``lamcalc.sexpr`` used before it tokenized in one pass.
It shares only the keyword tables and ``ParseError`` with it, so the two
must agree on every input: the same value, or the same message and offset.
"""

from __future__ import annotations

from lamcalc.sexpr import _ENTRY_KIND, _ITEM_KIND, ParseError
from lamcalc.terms import BindKind, Env, Sort, Term, Var

# ASCII only: str.isdigit() also holds for digits of other scripts and for
# superscripts, which int() reads differently or not at all.
_DIGITS = frozenset("0123456789")


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
