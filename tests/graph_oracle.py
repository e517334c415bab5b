"""The independent graph oracle: the reachable set by breadth-first search,
acyclicity and the longest path by Kahn's peeling.

It shares no code with ``lamcalc.traversal``, whose certifiers it checks.
"""

from __future__ import annotations


def graph_report(root, successors, cap=None):
    """BFS the graph reachable from ``root`` along ``successors``; ``None``
    if it is cyclic, else ``(nodes, edges, longest path)``.  More than
    ``cap`` nodes fails the calling test."""

    seen = {root}
    frontier = [root]
    edges = {}
    while frontier:
        fresh = []
        for n in frontier:
            outs = successors(n)
            edges[n] = outs
            for m in outs:
                if m not in seen:
                    seen.add(m)
                    assert cap is None or len(seen) <= cap, "oracle cap"
                    fresh.append(m)
        frontier = fresh
    indegree = dict.fromkeys(seen, 0)
    for outs in edges.values():
        for m in outs:
            indegree[m] += 1
    queue = [n for n in seen if indegree[n] == 0]
    topo = []
    while queue:
        n = queue.pop()
        topo.append(n)
        for m in edges[n]:
            indegree[m] -= 1
            if indegree[m] == 0:
                queue.append(m)
    if len(topo) < len(seen):
        return None  # a cycle survives every peeling order
    depth = {}
    for n in reversed(topo):
        depth[n] = max((depth[m] + 1 for m in edges[n]), default=0)
    return len(seen), sum(map(len, edges.values())), depth[root]
