"""Plain breadth-first graph report, the benchmark's own oracle.

It shares no code with ``lamcalc.traversal``: the reachable set comes
from a breadth-first walk, acyclicity from peeling nodes of in-degree
zero (Kahn), and the longest path from the resulting topological order.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

__all__ = ["graph_report"]

NODE_CAP = 30000  # far above any graph a gate closure reaches


def graph_report(
    root: Hashable, successors: Callable[[Hashable], Iterable[Hashable]]
) -> tuple[int, int, int] | None:
    """``(nodes, edges, longest path)`` of the graph reachable from
    ``root``, or ``None`` when it has a cycle."""

    edges: dict = {}
    frontier = [root]
    seen = {root}
    while frontier:
        fresh = []
        for n in frontier:
            edges[n] = outs = list(successors(n))
            for m in outs:
                if m not in seen:
                    seen.add(m)
                    fresh.append(m)
        if len(seen) > NODE_CAP:
            raise RuntimeError(f"graph oracle: more than {NODE_CAP} nodes")
        frontier = fresh
    indegree = dict.fromkeys(seen, 0)
    for outs in edges.values():
        for m in outs:
            indegree[m] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in edges[n]:
            indegree[m] -= 1
            if indegree[m] == 0:
                ready.append(m)
    if len(order) < len(seen):
        return None
    depth: dict = {}
    for n in reversed(order):
        depth[n] = max((depth[m] + 1 for m in edges[n]), default=0)
    return len(seen), sum(len(outs) for outs in edges.values()), depth[root]
