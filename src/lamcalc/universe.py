"""Bounded, deterministic enumeration of closures.

The enumeration drives the exhaustive property suites: a fixed total order,
no duplicates, and hard bounds on term size, sort indices, reference depths
and environment length, so independent runs iterate the exact same values
in the exact same order.
"""

from __future__ import annotations

from typing import Iterator

from .terms import Bind, BindKind, Closure, Env, Flat, FlatKind, Sort, Term, Var

__all__ = ["enumerate_closures"]


def env_key(env: Env) -> tuple:
    """Total-order key on environments (by length, then entrywise).

    An entry is a ``(kind, side)`` tuple of an int-valued kind and a term,
    so the environment tuple orders its entries by itself.
    """

    return (len(env), env)


def closure_key(c: Closure) -> tuple:
    """Total-order key on closures: the environment's key, then the term."""

    return (len(c.env), c.env, c.term)


def _atoms(max_sort: int, max_ref: int) -> list[Term]:
    out: list[Term] = [Sort(k) for k in range(max_sort + 1)]
    out.extend(Var(i) for i in range(max_ref))
    return out


def enumerate_terms(max_size: int, max_sort: int, max_ref: int) -> list[Term]:
    """All terms with at most ``max_size`` constructors, sorts ``<= max_sort``,
    reference depths ``< max_ref``, in the total order on terms."""

    by_size: list[list[Term]] = [[]]
    if max_size >= 1:
        by_size.append(_atoms(max_sort, max_ref))
    for size in range(2, max_size + 1):
        layer: list[Term] = []
        for left in range(1, size - 1):
            right = size - 1 - left
            for side in by_size[left]:
                for body in by_size[right]:
                    for kind in BindKind:
                        layer.append(Bind(kind, side, body))
                    for kind in FlatKind:
                        layer.append(Flat(kind, side, body))
        by_size.append(layer)
    every = [t for layer in by_size for t in layer]
    every.sort()
    return every


def enumerate_envs(max_len: int, max_entry_size: int, max_sort: int, max_ref: int) -> list[Env]:
    entries = [
        (kind, t)
        for t in enumerate_terms(max_entry_size, max_sort, max_ref)
        for kind in BindKind
    ]
    layers: list[list[Env]] = [[()]]
    for _ in range(max_len):
        layers.append([env + (e,) for env in layers[-1] for e in entries])
    return [env for layer in layers for env in layer]


def enumerate_closures(max_term_size: int, max_env_len: int, max_sort: int) -> Iterator[Closure]:
    """Yield every closure within the given bounds, in a fixed total order.

    Terms have at most ``max_term_size`` constructors, sort indices are at
    most ``max_sort``, reference depths are below ``max_env_len +
    max_term_size``.  Environments have at most ``max_env_len`` entries
    whose side terms have at most 2 constructors under the same atom
    bounds.  Closures are made as they are asked for, never all at once.
    """

    max_ref = max_env_len + max_term_size
    terms = enumerate_terms(max_term_size, max_sort, max_ref)
    envs = sorted(enumerate_envs(max_env_len, 2, max_sort, max_ref), key=env_key)
    # closure_key orders by env_key, then by the term: the sorted product
    for env in envs:
        for t in terms:
            yield Closure(env, t)
