"""The certifier on toy graphs of integers: which stage finds a cycle, and
what the exploration reports and remembers."""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from graph_oracle import graph_report
from lamcalc.errors import BudgetExceeded
from lamcalc.traversal import Cycle, certify, explore

# 0 -> 1 -> 2 -> 0 is a cycle; 3 -> 4 -> 5 with a shortcut 3 -> 5 is not.
LOOP = {0: [1], 1: [2], 2: [0]}
DAG = {3: [4, 5], 4: [5], 5: []}


def _certify(graph, root, *, depth, sn=None, successors=None, budget=100):
    return certify(
        root,
        order=lambda n: (0, n),
        skeleton=lambda n: graph[n],
        closes=lambda n, back: back in graph[n],
        depth=depth,
        successors=successors or (lambda n: graph[n]),
        budget=budget,
        sn={} if sn is None else sn,
    )


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except BudgetExceeded as e:
        return ("raised", str(e))


def _unreachable(n):
    raise AssertionError("the scan should have found the cycle")


def test_scan_finds_the_cycle():
    got = _certify(LOOP, 0, depth=4, successors=_unreachable)
    assert got == Cycle((0, 1, 2))


def test_explore_finds_the_cycle_the_scan_misses():
    got = _certify(LOOP, 0, depth=0)
    assert got == explore(0, lambda n: LOOP[n], 100, {}) == Cycle((0, 1, 2))


def test_explore_drops_self_steps():
    assert explore(0, lambda n: [0], 10, {}) == (1, 0, 0)
    assert explore(0, lambda n: [n, 1] if n == 0 else [n], 10, {}) == (2, 1, 1)


def test_acyclic_report_is_explores_and_joins_sn():
    sn: dict[int, int] = {}
    got = _certify(DAG, 3, depth=4, sn=sn)
    assert got == explore(3, lambda n: DAG[n], 100, {}) == (3, 3, 2)
    assert sn == {3: 2, 4: 1, 5: 0}


def test_depth_zero_skips_the_scan():
    """The certifiers pass depth 0 for roots known to be strongly
    normalizing: the walk alone certifies them."""

    def unused(*_):
        raise AssertionError("the scan should take no step at depth 0")

    sn: dict[int, int] = {}
    got = certify(
        3,
        order=lambda n: (0, n),
        skeleton=unused,
        closes=unused,
        depth=0,
        successors=lambda n: DAG[n],
        budget=100,
        sn=sn,
    )
    assert got == explore(3, lambda n: DAG[n], 100, {}) == (3, 3, 2)
    assert sn == {3: 2, 4: 1, 5: 0}


def test_nodes_finished_before_a_cycle_keep_their_certificates():
    """The branch 1 -> 2 finishes before the branch 3 -> 4 closes a cycle:
    its nodes were walked to the end, so they join ``sn`` all the same."""

    graph = {0: [1, 3], 1: [2], 2: [], 3: [4], 4: [3]}
    sn: dict[int, int] = {}
    assert explore(0, lambda n: graph[n], 100, sn) == Cycle((3, 4))
    assert sn == {1: 1, 2: 0}


def test_root_in_sn_still_gets_the_exact_report():
    sn = {3: 2, 4: 1, 5: 0}
    assert _certify(DAG, 3, depth=4, sn=sn) == (3, 3, 2)
    assert sn == {3: 2, 4: 1, 5: 0}


def test_walk_stops_at_sn_and_counts_below_it():
    sn = {4: 1, 5: 0}
    assert _certify(DAG, 3, depth=0, sn=sn) == (3, 3, 2)
    assert sn == {3: 2, 4: 1, 5: 0}


def test_tiny_budget_raises_alike_on_a_warm_sn():
    cold = _outcome(_certify, DAG, 3, depth=0, budget=2)
    assert cold == ("raised", "more than 2 reachable nodes")
    sn: dict[int, int] = {}
    _certify(DAG, 3, depth=0, sn=sn)
    assert _outcome(_certify, DAG, 3, depth=0, sn=sn, budget=2) == cold
    assert _outcome(_certify, DAG, 4, depth=0, sn=sn, budget=1) == (
        "raised",
        "more than 1 reachable nodes",
    )


def test_failing_successors_raise_alike_on_a_warm_sn():
    """Two nodes fail, each with its own message: a cold call raises the
    first one the ordered walk reaches, and so must a warm call."""

    def failing(n):
        if n in (4, 5):
            raise BudgetExceeded(f"node {n}")
        return DAG[n]

    cold = _outcome(_certify, DAG, 3, depth=0, successors=failing)
    assert cold == ("raised", "node 4")
    sn: dict[int, int] = {}
    _certify(DAG, 3, depth=0, sn=sn)
    assert _outcome(_certify, DAG, 3, depth=0, sn=sn, successors=failing) == cold
    assert sn == {3: 2, 4: 1, 5: 0}


def _oracle(graph, root):
    """The graph oracle on ``graph`` without self-steps."""

    return graph_report(root, lambda n: [m for m in set(graph[n]) if m != n])


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 12))
    nodes = st.integers(0, n - 1)
    graph = {i: draw(st.lists(nodes, max_size=4, unique=True)) for i in range(n)}
    return graph, draw(st.permutations(range(n))), draw(st.integers(1, 13))


@settings(max_examples=300, deadline=None)
@given(_digraphs(), st.randoms(use_true_random=False))
def test_warm_reports_match_cold_sorted_explore(case, rng: random.Random):
    """Roots certified in a random order on one shared ``sn``, each
    successor set handed over in a fresh random order, give what a sorted
    ``explore`` gives on its own; acyclic reports match a BFS oracle and
    leave ``sn`` closed under successors, with true longest paths."""

    graph, roots, budget = case

    def shuffled(n):
        out = list(graph[n])
        rng.shuffle(out)
        return out

    sn: dict[int, int] = {}
    for root in roots:
        got = _outcome(
            _certify, graph, root, depth=0, sn=sn, successors=shuffled, budget=budget
        )
        cold = _outcome(
            explore, root, lambda n: sorted(set(graph[n]) - {n}), budget, {}
        )
        assert got == cold, (root, sn)
        if isinstance(got, Cycle):
            assert _oracle(graph, root) is None
        elif got[0] != "raised":
            assert got == _oracle(graph, root)
    for n, longest in sn.items():
        assert _oracle(graph, n)[2] == longest
        assert set(graph[n]) <= set(sn)
