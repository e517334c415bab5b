"""``normalize`` and ``conv`` against the textbook normalizer of
``nf_oracle``, which states beta on its own.  Under the binders that
``wrap`` adds the environment is not empty, so these also check that a
term reading nothing of its environment is judged as in ``()``."""

from __future__ import annotations

import pytest
from nf_oracle import normal_form, wrap

from lamcalc import clear_caches, conv, normalize
from lamcalc.universe import enumerate_closures, enumerate_terms


@pytest.fixture(scope="module")
def gate():
    """Each gate closure (size 4, environments of length 2, sorts 0..1)
    with the textbook normal form of its wrapped term."""

    closures = enumerate_closures(4, 2, 1)
    return [(env, t, normal_form(wrap(env, t))) for env, t in closures]


def test_normalize_agrees_with_the_textbook_normalizer_on_gate_closures(gate):
    clear_caches()
    assert all(want is not None for _, _, want in gate)
    bad = [
        (env, t) for env, t, want in gate if normalize((), wrap(env, t)) != want
    ]
    assert bad == []


def test_normalize_agrees_with_the_textbook_normalizer_past_the_gate():
    """Every term of up to 7 constructors over ``*0``, ``#0`` and ``#1``:
    these hold the redexes the gate's terms are too small for, such as a
    theta step whose argument refers to a binder."""

    clear_caches()
    terms = enumerate_terms(7, 0, 2)
    assert len(terms) == 26823
    bad = [t for t in terms if normalize((), t) != normal_form(t)]
    assert bad == []


def test_conv_agrees_with_textbook_normal_forms(gate):
    """In each gate environment, each term against the one before it and
    against the first term of its normal form: ``conv`` holds exactly when
    the textbook normal forms are equal."""

    clear_caches()
    nf = {(env, t): want for env, t, want in gate}
    first = {}
    bad = []
    held = 0
    for (env, t, want), (env0, t0, _) in zip(gate, gate[:1] + gate):
        for u in [first.setdefault((env, want), t)] + [t0] * (env0 == env):
            holds = conv(env, t, u)
            held += holds
            if holds != (want == nf[env, u]):
                bad.append((env, t, u))
    assert bad == []
    assert 72072 < held < 2 * 72072
