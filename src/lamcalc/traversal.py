"""Graph walks with cycle detection, and the certifier.

Strong normalization of a finitely-branching relation is equivalent to the
reachable successor graph being finite and acyclic, so the certifiers walk
that graph with :func:`explore`: a depth-first search over proper steps
that marks each reached node by whether it is on the current path, to
catch cycles, and caps the number of distinct nodes by a budget.  It
takes ``sn``, a map from each node already proved strongly normalizing to
its longest path, closed under successors.  The walk stops at those
nodes, taking their longest path from ``sn`` and counting the nodes and
edges below them with a plain set walk.  Each node it walks joins ``sn``
with its longest path as it leaves the path, all its steps done, so later
walks under the same relation reuse earlier certificates.

``certify`` runs that walk for terms and closures alike, after a cheap
scan for a cycle near the root.  Both keep their path on an explicit
stack, and no function of theirs refers to itself, so a call leaves no
cyclic garbage behind, whether it returns or raises.  The walk visits
successors in any order, since an acyclic report does not depend on it.
Only a cycle or a budget failure does, so then the graph is walked again
from scratch with successors sorted, and the answer is the one a cold
call gives.

:func:`reach` is the one breadth-first search, for the questions that only
ask what is reachable: iterated reduction, iterated subclosures and the
exported edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Iterable, Iterator, TypeVar

from .errors import BudgetExceeded

__all__ = ["Cycle", "SnReport"]

Node = TypeVar("Node", bound=Hashable)

# Slack added to the root's measure when scanning for small cycles; it
# bounds the scan only.  Parallel reduct sets grow multiplicatively with
# term size, so certifiers look for a cycle among nodes near the root's
# measure before exploring the (often much larger, possibly infinite)
# reachable graph.
CYCLE_SCAN_SLACK = 8


@dataclass(frozen=True)
class Cycle:
    """A reachable proper-step cycle (the listed nodes repeat forever)."""

    path: tuple


@dataclass(frozen=True)
class SnReport:
    """Witness of strong normalization: the reachable graph is a finite DAG
    of ``nodes`` nodes whose longest path has ``max_depth`` steps."""

    nodes: int
    max_depth: int


def explore(
    root: Node,
    successors: Callable[[Node], Iterable[Node]],
    budget: int,
    sn: dict[Node, int],
) -> Cycle | tuple[int, int, int]:
    """Walk the graph of proper steps from ``root`` depth-first; return a
    Cycle or (nodes, edges, depth).

    Self-steps are dropped.  Successors are visited in the order given,
    which decides the cycle returned and the failure raised first.
    ``BudgetExceeded`` is raised when more than ``budget`` nodes are
    reachable, and that of ``successors`` propagates.

    ``sn`` maps nodes already proved strongly normalizing to their longest
    path and is closed under successors.  The walk stops at its nodes and
    only counts the nodes and edges below them.  A new node joins ``sn``
    when it leaves the stack: no step from it closed a cycle and each led
    into ``sn``, so its certificate holds whatever the rest of the walk
    finds, and the nodes finished before a cycle or a budget failure keep
    theirs.

    One table marks every reached node, True while it is on the path, so
    a revisited edge costs one lookup to tell a cycle from a node already
    walked.
    """

    if budget < 1:
        raise BudgetExceeded(f"more than {budget} reachable nodes")
    seen: dict[Node, bool] = {}  # reached nodes: True while on the path
    border: list[Node] = []  # reached nodes of sn, not yet walked
    edges = 0

    def enter(n: Node) -> tuple[Node, tuple[Node, ...], Iterator[Node]]:
        seen[n] = True
        out = tuple(s for s in successors(n) if s != n)
        return n, out, iter(out)

    stack = []  # per node on the path: the node, its proper steps, those left
    if root in sn:
        seen[root] = False
        border.append(root)
    else:
        stack.append(enter(root))
    while stack:
        node, out, pending = stack[-1]
        for child in pending:
            on_path = seen.get(child)
            if on_path is not None:
                if on_path:
                    path = [n for n, _, _ in stack]
                    return Cycle(tuple(path[path.index(child) :]))
                continue
            if len(seen) >= budget:
                raise BudgetExceeded(f"more than {budget} reachable nodes")
            if child in sn:
                seen[child] = False
                border.append(child)
            else:
                stack.append(enter(child))
                break
        else:
            # every step of the node led to sn, so the node joins it
            stack.pop()
            seen[node] = False
            edges += len(out)
            sn[node] = 1 + max(sn[s] for s in out) if out else 0
    # sn is closed under successors, so below the border every node is in
    # sn and only the counts remain to be taken.
    while border:
        n = border.pop()
        for s in successors(n):
            if s != n:
                edges += 1
                if s not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceeded(f"more than {budget} reachable nodes")
                    seen[s] = False
                    border.append(s)
    return len(seen), edges, sn[root]


def reach(
    root: Node,
    successors: Callable[[Node], Collection[Node]],
    budget: int,
) -> Iterator[tuple[Node, Collection[Node]]]:
    """Breadth-first from ``root``: yield each reachable node with its
    successors, before they are counted against ``budget``.

    ``BudgetExceeded`` is raised when more than ``budget`` nodes are
    reached, so the caller sees a node's successors even when counting
    them goes over the budget.
    """

    seen = {root}
    queue = [root]
    for n in queue:  # the loop runs on over the nodes it appends
        out = successors(n)
        yield n, out
        for s in out:
            if s not in seen:
                seen.add(s)
                if len(seen) > budget:
                    raise BudgetExceeded(f"more than {budget} reachable nodes")
                queue.append(s)


def certify(
    root: Node,
    *,
    order: Callable[[Node], tuple],
    skeleton: Callable[[Node], Iterable[Node]],
    closes: Callable[[Node, Node], bool],
    depth: int,
    successors: Callable[[Node], Iterable[Node]],
    budget: int,
    sn: dict[Node, int],
) -> Cycle | tuple[int, int, int]:
    """Certify that no infinite chain of proper steps leaves ``root``.

    Returns a Cycle or, like :func:`explore`, (nodes, edges, depth) of the
    finite acyclic reachable graph.  Self-steps are never proper steps and
    are dropped from every successor set.  Two stages, in order:

    1. Walk the single-redex ``skeleton`` steps to ``depth``, among nodes
       of measure at most the root's plus :data:`CYCLE_SCAN_SLACK`, asking
       at each node whether one proper step ``closes`` back onto a node on
       the current path.  A hit is a genuine cycle; a miss proves nothing.
       At ``depth`` 0 it calls neither ``skeleton`` nor ``closes``.  The
       scan is :func:`_scan`, a loop over an explicit stack.
    2. Explore the graph of ``successors``.  Its report is exact; when
       the graph is too large or infinite, the ``budget`` stops the walk.

    Where order matters, steps are taken by ``order``, so results are
    deterministic.  Its first item is the node's measure, an int.

    ``sn`` maps nodes known to be strongly normalizing under the same
    relation to their longest path, and is closed under successors; it is
    read and extended in place.  The scan returns at once at such a node:
    no cycle passes through it, and every node it reaches is strongly
    normalizing too, so the first cycle found is the same.  The
    exploration walks the new nodes in any order and stops at ``sn``
    nodes, counting what lies below them; each node it finishes joins
    ``sn`` with its longest path.  On a cycle or a budget failure it walks
    the whole graph again in order, without ``sn``, so no report, cycle or
    failure depends on what ``sn`` held.
    """

    got = _scan(root, depth, order, skeleton, closes, sn)
    if got is not None:
        return got
    try:
        got = explore(root, successors, budget, sn)
    except BudgetExceeded:
        got = None
    if isinstance(got, tuple):
        return got

    def ordered(n: Node) -> list[Node]:
        return sorted(successors(n), key=order)

    # A cycle or a budget failure: the ordered walk finds or raises the
    # same as a cold call.  It never reports an acyclic graph here, since
    # this graph has a cycle, more than ``budget`` nodes or a failing node.
    return explore(root, ordered, budget, {})


def _scan(
    root: Node,
    depth: int,
    order: Callable[[Node], tuple],
    skeleton: Callable[[Node], Iterable[Node]],
    closes: Callable[[Node, Node], bool],
    sn: dict[Node, int],
) -> Cycle | None:
    """The cycle scan of :func:`certify`, depth-first with an explicit
    stack, so that it leaves no reference cycle behind.

    At each node outside ``sn``, ask whether one step ``closes`` onto a
    node of the path, outermost first.  Then, unless the path is ``depth``
    long or the node was scanned before, push it and scan its ``skeleton``
    steps of measure at most the root's plus :data:`CYCLE_SCAN_SLACK`, by
    ``order``.
    """

    cap = order(root)[0] + CYCLE_SCAN_SLACK
    seen: set[Node] = set()
    path: list[Node] = []
    todo = [iter((root,))]  # per level, the nodes left to scan there
    while todo:
        for n in todo[-1]:
            if n in sn:
                continue
            for idx, back in enumerate(path):
                if closes(n, back):
                    return Cycle(tuple(path[idx:]) + (n,))
            if len(path) == depth or n in seen:
                continue
            seen.add(n)
            path.append(n)
            steps = {s: k for s in skeleton(n) if s != n and (k := order(s))[0] <= cap}
            todo.append(iter(sorted(steps, key=steps.__getitem__)))
            break
        else:
            todo.pop()
            if path:
                path.pop()
    return None
