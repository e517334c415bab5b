"""Exhaustive graph exploration with cycle detection, and the certifier.

Strong normalization of a finitely-branching relation is equivalent to the
reachable successor graph being finite and acyclic, so the certifiers walk
that graph: a depth-first search keeps the current path (grey nodes) to
catch cycles, a budget caps the number of distinct nodes, and a second
pass over the finish order computes the longest path and the edge count.

``certify`` runs that walk for terms and closures alike, after a cheap
scan for a cycle near the root.  It takes a set of nodes already proved
strongly normalizing, skips them in the scan, and adds every node of each
finite acyclic graph it explores, so later calls under the same relation
reuse earlier certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, TypeVar

from .errors import BudgetExceeded

__all__ = ["Cycle", "SnReport", "certify", "explore"]

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
    *,
    finished: list[Node] | None = None,
) -> Cycle | tuple[int, int, int]:
    """Walk the graph from ``root``; return a Cycle or (nodes, edges, depth).

    When ``finished`` is given and no cycle is found, every reachable node
    is appended to it, in finish order.
    """

    succ_of: dict[Node, tuple[Node, ...]] = {}

    def succs(n: Node) -> tuple[Node, ...]:
        out = succ_of.get(n)
        if out is None:
            out = tuple(successors(n))
            succ_of[n] = out
        return out

    GREY, BLACK = 0, 1
    color: dict[Node, int] = {root: GREY}
    if budget < 1:
        raise BudgetExceeded("traversal budget is zero")
    stack = [(root, iter(succs(root)))]
    path = [root]
    finish: list[Node] = []
    while stack:
        node, pending = stack[-1]
        advanced = False
        for child in pending:
            mark = color.get(child)
            if mark is None:
                color[child] = GREY
                if len(color) > budget:
                    raise BudgetExceeded(f"more than {budget} reachable nodes")
                stack.append((child, iter(succs(child))))
                path.append(child)
                advanced = True
                break
            if mark == GREY:
                return Cycle(tuple(path[path.index(child) :]))
        if not advanced:
            stack.pop()
            path.pop()
            color[node] = BLACK
            finish.append(node)
    depth: dict[Node, int] = {}
    edges = 0
    for n in finish:
        out = succ_of[n]
        edges += len(out)
        depth[n] = 1 + max(depth[s] for s in out) if out else 0
    if finished is not None:
        finished.extend(finish)
    return len(finish), edges, depth[root]


def certify(
    root: Node,
    *,
    measure: Callable[[Node], int],
    key: Callable[[Node], object],
    skeleton: Callable[[Node], Iterable[Node]],
    closes: Callable[[Node, Node], bool],
    depth: int,
    successors: Callable[[Node], Iterable[Node]],
    budget: int,
    sn: set[Node],
) -> Cycle | tuple[int, int, int]:
    """Certify that no infinite chain of proper steps leaves ``root``.

    Returns a Cycle or, like :func:`explore`, (nodes, edges, depth) of the
    finite acyclic reachable graph.  Self-steps are never proper steps and
    are dropped from every successor set.  Two stages, in order:

    1. Walk the single-redex ``skeleton`` steps to ``depth``, among nodes
       of measure at most the root's plus :data:`CYCLE_SCAN_SLACK`, asking
       at each node whether one proper step ``closes`` back onto a node on
       the current path.  A hit is a genuine cycle; a miss proves nothing.
    2. Explore the graph of ``successors``.  Its report is exact; when
       the graph is too large or infinite, the ``budget`` stops the walk.

    Successors are visited in ``key`` order, so results are deterministic.

    ``sn`` holds nodes known to be strongly normalizing under the same
    relation; it is read and extended in place.  The scan returns at once
    at such a node: no cycle passes through it, and every node it reaches
    is strongly normalizing too, so the first cycle found is the same.
    When the exploration finds no cycle, every node of its graph joins
    ``sn``.  The exploration still walks every node, so the reported
    counts do not depend on what ``sn`` held.
    """

    cap = measure(root) + CYCLE_SCAN_SLACK
    seen: set[Node] = set()
    path: list[Node] = []

    def scan(n: Node, left: int) -> Cycle | None:
        if n in sn:
            return None
        for idx, back in enumerate(path):
            if closes(n, back):
                return Cycle(tuple(path[idx:] + [n]))
        if left == 0 or n in seen:
            return None
        seen.add(n)
        path.append(n)
        try:
            steps = sorted(
                {s for s in skeleton(n) if s != n and measure(s) <= cap}, key=key
            )
            for s in steps:
                got = scan(s, left - 1)
                if got is not None:
                    return got
        finally:
            path.pop()
        return None

    got = scan(root, depth)
    if got is not None:
        return got

    def proper(n: Node) -> list[Node]:
        return sorted((s for s in successors(n) if s != n), key=key)

    finished: list[Node] = []
    got = explore(root, proper, budget, finished=finished)
    if not isinstance(got, Cycle):
        sn.update(finished)
    return got
