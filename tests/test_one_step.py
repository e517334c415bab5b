"""The one-step core: capped sets against full sets, and budgets that hold
whatever the memo table already holds."""

from __future__ import annotations

import pytest

from lamcalc import BudgetExceeded, clear_caches, parse_term
from lamcalc.reduction import DEFAULT_BUDGET, one_step
from lamcalc.terms import term_size
from lamcalc.universe import enumerate_closures

EXTS = [None, (1, 2)]

# A spread of closures at the release gate's bounds (size 4, environments
# of length 2, sorts 0..1).
SAMPLE = list(enumerate_closures(4, 2, 1))[::97]


def _cold() -> None:
    clear_caches()


def _outcome(ext, env, term, cap, budget):
    try:
        return one_step(ext, env, term, cap, budget)
    except BudgetExceeded as e:
        return ("raised", str(e))


def test_budget_holds_on_a_warm_memo():
    t = parse_term("(appl (cast *0 *1) (cast *1 *0))")
    _cold()
    with pytest.raises(BudgetExceeded):
        one_step((1, 2), (), t, 12, 5)
    assert len(one_step((1, 2), (), t, 12, 100000)[0]) == 49
    with pytest.raises(BudgetExceeded):
        one_step((1, 2), (), t, 12, 5)


@pytest.mark.parametrize("ext", EXTS)
def test_capped_sets_against_full_sets(ext):
    for env, t in SAMPLE:
        full, flag = one_step(ext, env, t, None, DEFAULT_BUDGET)
        assert not flag
        for cap in range(1, term_size(t) + 9):
            got, pruned = one_step(ext, env, t, cap, DEFAULT_BUDGET)
            assert got <= full
            assert all(term_size(r) <= cap for r in got)
            if not pruned:
                assert got == full


@pytest.mark.parametrize("ext", EXTS)
def test_cold_and_warm_calls_agree(ext):
    for env, t in SAMPLE[::5]:
        for cap in (None, term_size(t), term_size(t) + 5):
            for budget in (1, 3, 10, 30):
                _cold()
                cold = _outcome(ext, env, t, cap, budget)
                _cold()
                one_step(ext, env, t, cap, DEFAULT_BUDGET)
                warm = _outcome(ext, env, t, cap, budget)
                assert cold == warm, (env, t, cap, budget)
