"""The certifier on toy graphs of integers: which stage finds a cycle, and
what the exploration reports and remembers."""

from __future__ import annotations

from lamcalc.traversal import Cycle, certify, explore

# 0 -> 1 -> 2 -> 0 is a cycle; 3 -> 4 -> 5 with a shortcut 3 -> 5 is not.
LOOP = {0: [1], 1: [2], 2: [0]}
DAG = {3: [4, 5], 4: [5], 5: []}


def _certify(graph, root, *, depth, sn=None, successors=None):
    return certify(
        root,
        measure=lambda n: 0,
        key=lambda n: n,
        skeleton=lambda n: graph[n],
        closes=lambda n, back: back in graph[n],
        depth=depth,
        successors=successors or (lambda n: graph[n]),
        budget=100,
        sn=set() if sn is None else sn,
    )


def _unreachable(n):
    raise AssertionError("the scan should have found the cycle")


def test_scan_finds_the_cycle():
    got = _certify(LOOP, 0, depth=4, successors=_unreachable)
    assert got == Cycle((0, 1, 2))


def test_explore_finds_the_cycle_the_scan_misses():
    got = _certify(LOOP, 0, depth=0)
    assert got == explore(0, lambda n: LOOP[n], 100) == Cycle((0, 1, 2))


def test_acyclic_report_is_explores_and_joins_sn():
    sn: set[int] = set()
    got = _certify(DAG, 3, depth=4, sn=sn)
    assert got == explore(3, lambda n: DAG[n], 100) == (3, 3, 2)
    assert sn == {3, 4, 5}


def test_root_in_sn_still_gets_the_exact_report():
    sn = {3}
    assert _certify(DAG, 3, depth=4, sn=sn) == (3, 3, 2)
    assert sn == {3, 4, 5}
