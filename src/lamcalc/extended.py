"""Extended parallel reduction and lazy environment equivalence.

Extended reduction adds three redexes on top of plain parallel reduction:

* s     — bump a sort of positive degree to its successor sort;
* delta — now also unfolds *declaration* entries, replacing the reference
  with its expected type;
* e     — from a cast, keep the annotation instead of the term.

All the rules are stated once, in ``lamcalc.reduction._contractions``,
which drives the reduct sets and the single-redex skeleton ``_seq_steps``
alike.  The matcher ``_step_to`` decides a step by inverting each rule on
its own, so it cross-checks that statement rather than repeating it.
These are the steps that static types take, so strong normalization of
extended reduction (``csx_certify``) is the property the stratified-validity
layer leans on.  Lazy equivalence (``lleq_holds``) identifies environments
that agree on every entry a term hereditarily refers to (``frees_holds``),
and ``lsx_certify``/``lcosx_certify`` certify that environment reduction
cannot change a term's referred entries forever.  The references a term
hereditarily refers to are found once per level, environment and term,
as one sorted tuple (``_frees``); ``frees_holds``, ``frees_indices``,
``lleq_holds``, ``llor`` and the closure-level successors all read it.
"""

from __future__ import annotations

from .arity import aaa
from .reduction import _UNSET, _contractions, env_reducts, one_step
from .relocation import delift, lift
from .terms import (
    Bind,
    BindKind,
    Env,
    Flat,
    FlatKind,
    Params,
    Sort,
    Term,
    Var,
    _CLASSES,
    _judged_in,
    _refs,
    _refuse,
    env_push,
    term_size,
)
from .traversal import Cycle, SnReport, certify, explore
from .universe import env_key

__all__ = [
    "cpx_reducts",
    "cpx_holds",
    "lpx_reducts",
    "lpx_holds",
    "cnx_holds",
    "csx_certify",
    "frees_holds",
    "frees_indices",
    "lleq_holds",
    "llor",
    "lsx_certify",
    "lcosx_certify",
]


def cpx_reducts(params: Params, env: Env, term: Term) -> frozenset[Term]:
    """All one-step extended parallel reducts of ``term`` (incl. itself)."""

    return one_step((params.c, params.big_d), env, term, params.budget)


def cpx_holds(params: Params, env: Env, t1: Term, t2: Term) -> bool:
    """Decide one extended parallel step without enumerating the reduct
    set, by matching the target against each way a step can produce it."""

    return _step_to((params.c, params.big_d), env, t1, t2)


_STEP: dict[tuple[int, int], dict[Env, dict[Term, dict[Term, bool]]]] = {}


def _step_to(ext: tuple[int, int], env: Env, t1: Term, t2: Term) -> bool:
    if t1 == t2:
        return True
    env = _judged_in(env, t1)  # () when it reads no entry of env
    if type(t2) not in _CLASSES:
        _refuse(t2)
    got = _STEP.get(ext, _UNSET).get(env, _UNSET).get(t1, _UNSET).get(t2)
    if got is not None:
        return got
    # Each rule is matched backwards from the target, independently of the
    # enumeration's statement of it, so each can check the other.
    cls = type(t1)
    if cls is Var:
        _, i = t1
        v2 = delift(0, i + 1, t2) if i < len(env) else None
        got = v2 is not None and _step_to(ext, env[i + 1 :], env[i][1], v2)
    elif cls is Sort:
        _, k = t1
        c, big_d = ext
        got = t2 == Sort(k + c) and max(big_d - k // c, 0) >= 1
    else:
        _, kind, side, body = t1
        if (  # the congruence: same constructor and kind, and each part steps
            type(t2) is cls
            and t2[1] == kind
            and _step_to(ext, env, side, t2[2])
            and _step_to(
                ext, env_push(env, kind, side) if cls is Bind else env, body, t2[3]
            )
        ):
            got = True
        elif cls is Bind:  # zeta
            got = kind == BindKind.ABBR and _step_to(
                ext, env_push(env, kind, side), body, lift(0, 1, t2)
            )
        elif kind == FlatKind.CAST:  # eps, or e keeping the annotation
            got = _step_to(ext, env, body, t2) or _step_to(ext, env, side, t2)
        elif type(body) is not Bind or type(t2) is not Bind or t2[1] != BindKind.ABBR:
            got = False
        elif body[1] == BindKind.ABST:  # beta
            _, kind, u, s = body
            _, _, u2, b2 = t2
            got = (
                type(u2) is Flat
                and u2[1] == FlatKind.CAST
                and _step_to(ext, env, u, u2[2])
                and _step_to(ext, env, side, u2[3])
                and _step_to(ext, env_push(env, kind, u), s, b2)
            )
        else:  # theta
            _, kind, u, s = body
            _, _, u2, b2 = t2
            appl = type(b2) is Flat and b2[1] == FlatKind.APPL
            v2 = delift(0, 1, b2[2]) if appl else None
            got = (
                v2 is not None
                and _step_to(ext, env, side, v2)
                and _step_to(ext, env, u, u2)
                and _step_to(ext, env_push(env, kind, u), s, b2[3])
            )
    _STEP.setdefault(ext, {}).setdefault(env, {}).setdefault(t1, {})[t2] = got
    return got


def lpx_reducts(params: Params, env: Env) -> frozenset[Env]:
    """One extended step inside the entries, each in its own outer
    environment, kinds unchanged."""

    return env_reducts((params.c, params.big_d), env, params.budget)


def lpx_holds(params: Params, env1: Env, env2: Env) -> bool:
    if len(env1) != len(env2):
        return False
    ext = (params.c, params.big_d)
    return all(
        k1 == k2 and _step_to(ext, env1[i + 1 :], s1, s2)
        for i, ((k1, s1), (k2, s2)) in enumerate(zip(env1, env2))
    )


def cnx_holds(params: Params, env: Env, term: Term) -> bool:
    """Normal for extended reduction: the only reduct is the term itself.

    Equivalent to having no single-redex step: every such step yields a
    different term, and a proper parallel step factors into at least one.
    """

    return next(_seq_steps((params.c, params.big_d), env, term), None) is None


def _seq_steps(ext: tuple[int, int], env: Env, term: Term):
    """Single-redex steps, the sequential skeleton of extended reduction.

    Every such step is an extended parallel step, and every parallel step
    factors into these, so both relations reach the same terms and have
    the same cycles.  The fan-out is linear in the term size, which makes
    this the relation of choice when scanning for a cycle.
    """

    cls = type(term)
    if cls is Bind or cls is Flat:
        _, kind, side, body = term
        for s2 in _seq_steps(ext, env, side):
            yield cls(kind, s2, body)
        inner = env_push(env, kind, side) if cls is Bind else env
        for b2 in _seq_steps(ext, inner, body):
            yield cls(kind, side, b2)
    yield from _contractions(ext, env, term, _itself, 1)


def _itself(_: Env, part: Term) -> tuple[Term]:
    return (part,)


# Depth of the pre-traversal cycle scan: paths of single-redex steps this
# long are probed for a parallel step closing back onto the path.
CYCLE_SCAN_DEPTH = 4

# Terms proved strongly normalizing, with their longest path, one map per
# hierarchy and environment.
_SN: dict[tuple[int, int], dict[Env, dict[Term, int]]] = {}


def csx_certify(params: Params, env: Env, term: Term) -> SnReport | Cycle:
    """Certify strong normalization of extended reduction from ``term``.

    Explores every term reachable by proper (non-identity) extended steps;
    a finite acyclic graph proves termination of every reduction sequence
    because branching is finite.  Run by :func:`lamcalc.traversal.certify`:
    a scan of single-redex steps to :data:`CYCLE_SCAN_DEPTH`, asking at each
    term whether one parallel step returns to the path (decided by matching,
    without enumerating reduct sets), then the parallel-step graph.  A term
    with an atomic arity is strongly normalizing, so the scan could only
    miss there: it is skipped (depth 0), and the answer is the same.
    Terms certified by one call are known to be strongly normalizing in
    every later call over the same environment and sort hierarchy.
    """

    ext = (params.c, params.big_d)
    got = certify(
        term,
        order=lambda t: (term_size(t), t),
        skeleton=lambda t: _seq_steps(ext, env, t),
        closes=lambda t, back: _step_to(ext, env, t, back),
        depth=0 if aaa(env, term) is not None else CYCLE_SCAN_DEPTH,
        successors=lambda t: one_step(ext, env, t, params.budget),
        budget=params.budget,
        sn=_SN.setdefault(ext, {}).setdefault(env, {}),
    )
    if isinstance(got, Cycle):
        return got
    nodes, _, depth = got
    return SnReport(nodes, depth)


# Hereditarily free references, by level, environment and term.
_FREES: dict[int, dict[Env, dict[Term, tuple[int, ...]]]] = {}


def _frees(l: int, env: Env, term: Term) -> tuple[int, ...]:
    """The references hereditarily free in ``term`` at level ``l``, sorted.

    The term's own free references, and for each of them at an index
    ``j`` with ``l <= j < len(env)``, the references of the entry's side
    in its own outer environment at level 0, shifted by ``j + 1``.  A
    tuple of ints rather than a bitmask, whose width would be the largest
    index, or a frozenset, which the garbage collector tracks for life.
    In ``()`` these are the term's own, read from their per-term table.
    A miss expands each entry it reaches once, on a work list.
    """

    if not _judged_in(env, term):  # reads nothing of env: as in ()
        return _refs(term)
    got = _FREES.get(l, _UNSET).get(env, _UNSET).get(term)
    if got is None:
        out = set(_refs(term))
        todo = [j for j in out if l <= j < len(env)]
        done = set(todo)
        while todo:
            j = todo.pop()
            _refuse(env[j][1])
            for k in _refs(env[j][1]):
                i = j + 1 + k
                out.add(i)
                if i < len(env) and i not in done:
                    done.add(i)
                    todo.append(i)
        got = _FREES.setdefault(l, {}).setdefault(env, {})[term] = tuple(sorted(out))
    return got


def _natural(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be a natural")


def frees_holds(i: int, l: int, env: Env, term: Term) -> bool:
    """Is reference ``i`` hereditarily free in ``term`` at level ``l``?

    Either ``i`` occurs in the term itself, or the term refers — at or
    above the level — to an entry whose side refers on.  Raises
    ``ValueError`` when ``i`` or ``l`` is negative.
    """

    _natural("reference i", i)
    _natural("level l", l)
    return i in _frees(l, env, term)


def frees_indices(l: int, env: Env, term: Term, bound: int) -> frozenset[int]:
    """The hereditarily free references below ``bound``.  Raises
    ``ValueError`` when ``l`` is negative."""

    _natural("level l", l)
    return frozenset(i for i in _frees(l, env, term) if i < bound)


def lleq_holds(l: int, term: Term, env1: Env, env2: Env) -> bool:
    """Lazy equivalence: same length, and identical entries at every index
    ``>= l`` the term hereditarily refers to in ``env1``.  Raises
    ``ValueError`` when ``l`` is negative."""

    _natural("level l", l)
    if len(env1) != len(env2):
        return False
    return all(
        env1[i] == env2[i] for i in _frees(l, env1, term) if l <= i < len(env1)
    )


def llor(l: int, term: Term, env1: Env, env2: Env) -> Env | None:
    """Pointwise union: referred entries at or above the level come from
    ``env2``, all others from ``env1``; defined iff lengths agree.  Raises
    ``ValueError`` when ``l`` is negative."""

    _natural("level l", l)
    if len(env1) != len(env2):
        return None
    refs = _frees(l, env1, term)
    return tuple(
        env2[i] if i >= l and i in refs else env1[i] for i in range(len(env1))
    )


def lsx_certify(params: Params, l: int, term: Term, env: Env) -> SnReport | Cycle:
    """Certify that extended environment steps which break lazy equivalence
    with respect to ``term`` cannot be chained forever from ``env``."""

    def successors(e1: Env) -> list[Env]:
        return sorted(
            (e2 for e2 in lpx_reducts(params, e1) if not lleq_holds(l, term, e1, e2)),
            key=env_key,
        )

    got = explore(env, successors, params.budget, {})
    if isinstance(got, Cycle):
        return got
    nodes, _, depth = got
    return SnReport(nodes, depth)


def lcosx_certify(params: Params, l: int, env: Env) -> bool | Cycle:
    """Certify every entry below level ``l``: entry ``i`` needs an lsx
    certificate at level ``l - i - 1`` in its own outer environment.
    Trivially true at level 0 or on the empty environment."""

    for i, (_, side) in enumerate(env[:l]):
        got = lsx_certify(params, l - i - 1, side, env[i + 1 :])
        if isinstance(got, Cycle):
            return got
    return True
