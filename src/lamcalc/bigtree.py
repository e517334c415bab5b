"""Closure graphs combining subterm descent with reduction.

A closure steps to its direct subclosures, to reducts of its term, and to
environments reduced in a way its term can observe.  The union is finitely
branching, and certifying that no infinite chain leaves a closure amounts
to exhausting its reachable graph and finding it acyclic — the closure
analogue of :func:`lamcalc.extended.csx_certify`, run by the same
certifier, :func:`lamcalc.traversal.certify`, over closures.  Closures
certified by one call are known to be strongly normalizing in every later
call under the same sort hierarchy, and successor sets are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arity import aaa
from .extended import _frees, _seq_steps, _step_to, lleq_holds, lpx_holds
from .reduction import _UNSET, _guard, env_reducts, one_step
from .relocation import delift
from .sexpr import print_closure
from .terms import (
    Bind,
    Closure,
    Env,
    Flat,
    Params,
    Sort,
    Term,
    Var,
    closure_measure,
    env_push,
)
from .traversal import Cycle, certify, reach
from .universe import closure_key

__all__ = [
    "BigTreeReport",
    "fpb_successors",
    "fpbq_holds",
    "fqu_children",
    "fqus_holds",
    "fquq_holds",
    "fsb_certify",
    "fsb_graph",
]


@dataclass(frozen=True)
class BigTreeReport:
    """Certificate that no infinite chain of proper steps leaves a closure.

    ``nodes`` and ``edges`` describe the reachable graph (a dag, not a
    tree, so ``edges`` can exceed ``nodes - 1``); ``max_depth`` is its
    longest path.
    """

    nodes: int
    edges: int
    max_depth: int


def fqu_children(env: Env, term: Term) -> frozenset[Closure]:
    """The direct subclosures of ``(env, term)``.

    Sides and bodies of binary constructors (a binder's body under the
    extended environment), the entry closure when the term is the
    innermost reference, and every closure obtained by dropping a prefix
    of entries the term does not mention.  Each child has a strictly
    smaller :func:`closure_measure`, which is what recursion over
    subclosures rests on.  The drops stop at the first entry the term
    mentions, since every wider prefix holds it too.  To ask whether one
    closure is a child of another, :func:`_fqu_holds` matches instead of
    building this set.
    """

    out: set[Closure] = set()
    cls = type(term)
    if cls is Bind or cls is Flat:
        _, kind, side, body = term
        out.add(Closure(env, side))
        out.add(Closure(env_push(env, kind, side) if cls is Bind else env, body))
    elif cls is Var:
        if term[1] == 0 and env:
            out.add(Closure(env[1:], env[0][1]))
    elif cls is not Sort:
        raise TypeError(f"not a term: {term!r}")
    for m in range(1, len(env) + 1):
        dropped = delift(0, m, term)
        if dropped is None:
            break
        out.add(Closure(env[m:], dropped))
    return frozenset(out)


def _fqu_holds(c1: Closure, c2: Closure) -> bool:
    """Is ``c2`` a direct subclosure of ``c1``?  Membership in
    :func:`fqu_children`, decided by matching ``c2`` against each rule
    rather than building the set: a drop child must keep the last
    ``len(c2.env)`` entries, and its term must be the term delifted by the
    number dropped."""

    (env1, t1), (env2, t2) = c1, c2
    cls = type(t1)
    if cls is Bind or cls is Flat:
        _, kind, side, body = t1
        if t2 == side and env2 == env1:
            return True
        if t2 == body and env2 == (env_push(env1, kind, side) if cls is Bind else env1):
            return True
    elif cls is Var:
        if t1[1] == 0 and env1 and t2 == env1[0][1] and env2 == env1[1:]:
            return True
    elif cls is not Sort:
        raise TypeError(f"not a term: {t1!r}")
    m = len(env1) - len(env2)
    return m > 0 and env2 == env1[m:] and delift(0, m, t1) == t2


def fquq_holds(c1: Closure, c2: Closure) -> bool:
    """Direct subclosure or equality."""

    return c1 == c2 or _fqu_holds(c1, c2)


def fqus_holds(c1: Closure, c2: Closure, budget: int) -> bool:
    """Is ``c2`` an iterated subclosure of ``c1`` (reflexively)?"""

    return c1 == c2 or any(
        c2 in out for _, out in reach(c1, lambda c: fqu_children(*c), budget)
    )


def fpb_successors(params: Params, env: Env, term: Term) -> frozenset[Closure]:
    """One proper step out of a closure.

    A direct subclosure, a proper reduct of the term, or an environment
    reduct that the term observes — one whose change breaks lazy
    equivalence.  Equivalence-preserving environment steps are deliberately
    not successors: they have unboundedly many partners and cannot break
    or create an infinite chain, so certification may ignore them.
    """

    return _successors((params.c, params.big_d), env, term, params.budget)[0]


def _successors(
    ext: tuple[int, int], env: Env, term: Term, budget: int
) -> tuple[frozenset[Closure], int]:
    """:func:`fpb_successors` and the size of the largest reduct set it
    drew on, each reduct set held to ``budget``."""

    out: set[Closure] = set(fqu_children(env, term))
    reducts = one_step(ext, env, term, budget)
    for t2 in reducts:
        if t2 != term:
            out.add(Closure(env, t2))
    envs = env_reducts(ext, env, budget)
    # An environment reduct keeps the length, so it breaks lazy
    # equivalence exactly when it changes an entry the term refers to.
    # ``env`` is always one of its own reducts, and never such a change.
    if len(envs) > 1:
        refs = [i for i in _frees(0, env, term) if i < len(env)]
        for e2 in envs:
            if any(e2[i] != env[i] for i in refs):
                out.add(Closure(e2, term))
    return frozenset(out), max(len(reducts), len(envs))


def fpbq_holds(params: Params, c1: Closure, c2: Closure) -> bool:
    """One step between closures, equivalence included.

    Decided rule by rule rather than by enumerating successors, because
    the equivalence rule alone has unboundedly many partners: a lazily
    equal environment under the same term, or one proper step
    (:func:`_fpb_holds`).  Every reflexive case — the closure itself, a
    term or an environment stepping to itself — keeps the term and has
    an environment lazily equal to its own.
    """

    (env1, t1), (env2, t2) = c1, c2
    if t1 == t2 and lleq_holds(0, t1, env1, env2):
        return True
    return _fpb_holds(params, c1, c2)


def _fpb_holds(params: Params, c1: Closure, c2: Closure) -> bool:
    """One proper step: like :func:`fpbq_holds` minus every reflexive or
    equivalence-only case, matching :func:`fpb_successors` membership.

    Every rule is decided by matching ``c2`` against ``c1`` — a term step
    by :func:`lamcalc.extended._step_to`, a subclosure by
    :func:`_fqu_holds` — so no successor set is built.
    """

    (env1, t1), (env2, t2) = c1, c2
    if env1 == env2 and t1 != t2 and _step_to((params.c, params.big_d), env1, t1, t2):
        return True
    if (
        t1 == t2
        and not lleq_holds(0, t1, env1, env2)
        and lpx_holds(params, env1, env2)
    ):
        return True
    return _fqu_holds(c1, c2)


def _closure_seq_steps(params: Params, c: Closure):
    """Single-redex skeleton of the proper-step relation.

    Subclosures, single-redex term steps, and single-entry single-redex
    environment steps that break lazy equivalence.  Every proper step
    factors into these, so they reach the same closures and have the same
    cycles, with fan-out linear in the closure measure.
    """

    env, term = c
    ext = (params.c, params.big_d)
    yield from fqu_children(env, term)
    for t2 in _seq_steps(ext, env, term):
        if t2 != term:
            yield Closure(env, t2)
    # a step on one entry breaks lazy equivalence exactly when the term
    # refers to that entry
    for i in _frees(0, env, term):
        if i >= len(env):
            break
        kind, side = env[i]
        for s2 in _seq_steps(ext, env[i + 1 :], side):
            if s2 != side:
                yield Closure(env[:i] + ((kind, s2),) + env[i + 1 :], term)


# The closure-level scan must run deeper than the term-level one: closing
# a loop may first need a definition copied into each of its references,
# the copies' annotations erased, and the spent binder dropped — single-
# redex steps that one parallel step would merge — before a subclosure
# step can return to the redex.
CLOSURE_SCAN_DEPTH = 6


# Closures proved strongly normalizing, with their longest path, one map per
# sort hierarchy.
_SN: dict[tuple[int, int], dict[Closure, int]] = {}
# Successor sets by hierarchy and closure, with the size of the largest
# reduct set each drew on.
_SUCCESSORS: dict[tuple[int, int], dict[Closure, tuple[frozenset[Closure], int]]] = {}


def _kept_successors(params: Params, c: Closure) -> frozenset[Closure]:
    """:func:`fpb_successors`, memoized.  ``BudgetExceeded`` is raised, hit
    or miss, when a reduct set drawn on has more than ``params.budget``
    elements, so a cold and a warm call raise alike.  A miss draws its
    reduct sets under that budget, so it stops before building one that
    is too large; a set that fits is the same whatever budget drew it."""

    ext = (params.c, params.big_d)
    got = _SUCCESSORS.get(ext, _UNSET).get(c)
    if got is None:
        got = _SUCCESSORS.setdefault(ext, {})[c] = _successors(ext, *c, params.budget)
    out, reducts = got
    _guard(reducts, params.budget)
    return out


def fsb_certify(params: Params, env: Env, term: Term) -> BigTreeReport | Cycle:
    """Certify that no infinite chain of proper steps leaves ``(env, term)``.

    Explores every closure reachable by subclosure descent, proper term
    reduction and observed environment reduction; a finite acyclic graph
    certifies the property because branching is finite.  Run by
    :func:`lamcalc.traversal.certify`, like the term-level certifier: a
    scan of single-redex closure steps to :data:`CLOSURE_SCAN_DEPTH`,
    asking at each closure whether one proper step — parallel reduction,
    observed environment reduction, or subclosure descent — returns to the
    path, then the graph of :func:`fpb_successors`.  A closure whose term
    has an atomic arity is strongly normalizing, so the scan could only
    miss there: it is skipped (depth 0), and the answer is the same.
    """

    got = certify(
        Closure(env, term),
        order=lambda c: (closure_measure(c), closure_key(c)),
        skeleton=lambda c: _closure_seq_steps(params, c),
        closes=lambda c, back: _fpb_holds(params, c, back),
        depth=0 if aaa(env, term) is not None else CLOSURE_SCAN_DEPTH,
        successors=lambda c: _kept_successors(params, c),
        budget=params.budget,
        sn=_SN.setdefault((params.c, params.big_d), {}),
    )
    if isinstance(got, Cycle):
        return got
    nodes, edges, depth = got
    return BigTreeReport(nodes, edges, depth)


def fsb_graph(params: Params, env: Env, term: Term) -> str:
    """The reachable proper-step graph as a deterministic edge list.

    One ``src -> dst`` line per edge, sorted; works on cyclic graphs too,
    subject to the node budget.
    """

    graph = reach(
        Closure(env, term), lambda c: fpb_successors(params, *c), params.budget
    )
    lines = [
        f"{print_closure(*c)} -> {print_closure(*d)}" for c, out in graph for d in out
    ]
    return "\n".join(sorted(lines))
