"""Generated terms whose answers are known from how they are built.

Each family is a nesting of one pattern ``n`` deep.  The expected answer
of every judgment the benchmark asks about them follows from the rules of
the calculus by induction on ``n``; the comments give the argument.
Depths stay well below the nesting at which today's kernel overflows the
Python stack (a ``normalize`` of the identity chain fails at 170).
"""

from __future__ import annotations

__all__ = ["id_chain", "abbr_chain", "abst_tower", "lleq_pair", "MAX_DEPTH"]

# Largest depth drawn per family; each stays far enough from the
# recursion limit that a cold process with the benchmark's own frames on
# the stack answers every query.
MAX_DEPTH = {"id": 100, "abbr": 120, "abst": 150}


def id_chain(n: int) -> dict:
    """``*0`` applied to the identity ``(abst *1 #0)`` ``n`` times.

    Each beta step turns ``(appl t (abst *1 #0))`` into a definition whose
    body is its own reference, which unfolds, drops and loses its cast,
    leaving ``t``: the normal form is ``*0``.  The argument ``*0`` has type
    ``*1``, the identity's domain, so every level is valid with arity
    ``*``.  The degree is that of the outermost function's body ``#0``
    declared as ``*1``: ``deg(*1) + 1 = 2``.  The static type only enters
    the function part, so it replaces the outermost ``#0`` by ``*1``.
    """

    t = "*0"
    for _ in range(n - 1):
        t = f"(appl {t} (abst *1 #0))"
    return {
        "term": f"(appl {t} (abst *1 #0))",
        "nf": "*0",
        "arity": "*",
        "degree": 2,
        "stype1": f"(appl {t} (abst *1 *1))",
        "valid": True,
    }


def abbr_chain(n: int) -> dict:
    """``n`` definitions, the outermost ``*0`` and each later one ``#0``,
    around the body ``#0``.

    Every reference unfolds to the definition outside it, down to ``*0``,
    and the unused binders drop: the normal form is ``*0``.  Arity and
    degree are those of ``*0`` (``*`` and 2), and one static-type step
    keeps the binders and turns the innermost body into ``*1``.
    """

    def build(body: str) -> str:
        t = body
        for _ in range(n - 1):
            t = f"(abbr #0 {t})"
        return f"(abbr *0 {t})"

    return {
        "term": build("#0"),
        "nf": "*0",
        "arity": "*",
        "degree": 2,
        "stype1": build("*1"),
        "valid": True,
    }


def abst_tower(n: int) -> dict:
    """``n`` abstractions over ``*0`` around the body ``#0``.

    There is no redex, so the term is its own normal form and its only
    reduct.  The arity is ``n`` arrows from ``*`` ending in ``*``; the
    degree is that of a variable declared as ``*0``: ``2 + 1 = 3``; one
    static-type step turns the body into its declared type ``*0``.
    """

    def build(body: str) -> str:
        t = body
        for _ in range(n):
            t = f"(abst *0 {t})"
        return t

    arity = "*"
    for _ in range(n):
        arity = f"(* -> {arity})"
    return {
        "term": build("#0"),
        "nf": build("#0"),
        "arity": arity,
        "degree": 3,
        "stype1": build("*0"),
        "valid": True,
    }


def lleq_pair(n: int, linked: bool, at: int) -> dict:
    """Two environments of ``n`` entries that differ only at entry ``at``
    (counted from the innermost, ``at >= 1``), compared under ``#0``.

    When ``linked``, every entry but the outermost is ``def #0``, so
    ``#0`` hereditarily reads every entry and the difference breaks the
    equivalence.  Otherwise every entry is ``dec *0``, ``#0`` reads only
    entry 0, and the environments are equivalent.
    """

    inner = "def #0" if linked else "dec *0"
    entries = ["dec *0"] + [inner] * (n - 1)  # outermost first
    other = list(entries)
    other[n - 1 - at] = "dec *1" if other[n - 1 - at] == "dec *0" else "def *1"
    return {
        "env1": "[" + "; ".join(entries) + "]",
        "env2": "[" + "; ".join(other) + "]",
        "term": "#0",
        "holds": not linked,
    }
