"""``sweep-laws``: the release gate's non-certifier sweeps, in gate order.

A round runs ``diamond``, ``church-rosser``, ``arity-preservation``,
``subject-reduction``, ``statics-laws`` and ``lleq-laws``, then the
checker/oracle agreement of criterion 11 on every closure, all from empty
memo tables.  Each suite is one operation; so is each closure of the
agreement check, and those are the operations whose latency is reported.

The bounds are below the gate's (4, 2, 1), which takes about 45 s and
450 MB per round: environments keep the gate's two entries, terms have
at most three constructors and sorts stay at 0.  A round then takes
about 14 s and 160 MB.  The sweep is exhaustive, so the seed changes
nothing here.
"""

from __future__ import annotations

IMPORTS = ("props",)
ROUNDS = 1

BOUNDS = (3, 2, 0)  # term size, environment length, largest sort
SUITES = (
    "diamond",
    "church-rosser",
    "arity-preservation",
    "subject-reduction",
    "statics-laws",
    "lleq-laws",
)
ORACLE_BUDGET = 4  # computation-segment length the gate's oracle allows


def build(lc, seed: int) -> tuple:
    return BOUNDS


def run_round(lc, bounds: tuple, r: int, tally) -> dict:
    P = lc.Params()
    run_suite = lc.props.run_suite
    out: dict = {}
    for name in SUITES:
        with tally.phase(f"props.{name}_s"):
            out[name] = tally.call(run_suite, name, P, *bounds)
    check, oracle = lc.snv_check, lc.snv_oracle

    def agree(env, term):
        return check(P, env, term).valid == oracle(P, env, term, ORACLE_BUDGET)

    with tally.phase("validity.oracle_agreement_s"):
        out["disagree"] = [
            (env, term)
            for env, term in lc.enumerate_closures(*bounds)
            if tally.op(agree, env, term) is False
        ]
    return out


def verify(lc, bounds: tuple, outs: list[dict]) -> list[str]:
    (out,) = outs
    bad = []
    for name in SUITES:
        if out[name] is None:
            continue  # the suite raised; counted as failed, not as wrong
        if out[name]:
            bad.append(f"{name}: {len(out[name])} counterexamples, "
                       f"first {out[name][0]}")
    for env, term in out["disagree"]:
        bad.append(f"criterion 11: checker and oracle disagree on "
                   f"{lc.print_env(env)} |- {lc.print_term(term)}")
    return bad
