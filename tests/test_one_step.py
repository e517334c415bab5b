"""The one-step core and the environment reducts built on it: budgets
that hold whatever the memo tables already hold."""

from __future__ import annotations

import pytest

from lamcalc import BudgetExceeded, clear_caches, parse_term
from lamcalc.reduction import DEFAULT_BUDGET, env_reducts, one_step
from lamcalc.universe import enumerate_closures, env_key

EXTS = [None, (1, 2)]

# A spread of closures at the release gate's bounds (size 4, environments
# of length 2, sorts 0..1).
SAMPLE = list(enumerate_closures(4, 2, 1))[::97]
# The environments of the release gate's closures.
GATE_ENVS = sorted({env for env, _ in enumerate_closures(4, 2, 1)}, key=env_key)


def _cold() -> None:
    clear_caches()


def _outcome(ext, env, term, budget):
    try:
        return one_step(ext, env, term, budget)
    except BudgetExceeded as e:
        return ("raised", str(e))


def _env_outcome(ext, env, budget):
    try:
        return env_reducts(ext, env, budget)
    except BudgetExceeded as e:
        return ("raised", str(e))


def test_budget_holds_on_a_warm_memo():
    t = parse_term("(appl (cast *0 *1) (cast *1 *0))")
    _cold()
    with pytest.raises(BudgetExceeded):
        one_step((1, 2), (), t, 5)
    assert len(one_step((1, 2), (), t, 100000)) == 49
    with pytest.raises(BudgetExceeded):
        one_step((1, 2), (), t, 5)


@pytest.mark.parametrize("ext", EXTS)
def test_cold_and_warm_calls_agree(ext):
    for env, t in SAMPLE[::5]:
        for budget in (1, 3, 10, 30):
            _cold()
            cold = _outcome(ext, env, t, budget)
            _cold()
            one_step(ext, env, t, DEFAULT_BUDGET)
            warm = _outcome(ext, env, t, budget)
            assert cold == warm, (env, t, budget)


@pytest.mark.parametrize("ext", EXTS)
def test_env_reducts_cold_and_warm_agree(ext):
    """Each call gives the set, or the ``BudgetExceeded`` message, that a
    call on empty tables gives, whether a small or the default budget
    filled the tables first."""

    small = (1, 2, 3, 10)
    cold = {}
    for env in GATE_ENVS:
        for budget in (*small, DEFAULT_BUDGET):
            _cold()
            cold[env, budget] = _env_outcome(ext, env, budget)
    assert any(type(got) is tuple for got in cold.values())
    for order in ((*small, DEFAULT_BUDGET), (DEFAULT_BUDGET, *small)):
        _cold()
        for env in GATE_ENVS:
            for budget in order:
                assert _env_outcome(ext, env, budget) == cold[env, budget], (
                    env,
                    budget,
                )
