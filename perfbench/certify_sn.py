"""``certify-sn``: both strong-normalization certifiers on sampled closures.

A pass certifies a seeded sample of the arity-typed closures at gate
bounds: ``fsb_certify`` then ``csx_certify`` on each, one operation per
closure.  The sample is dealt into ``ROUNDS`` interleaved rounds, each
certified in enumeration order from empty memo tables; a run makes at
least two passes, so each closure is timed twice.  Two known loops close
every round: ``OMEGA`` refuted at term level, ``OMEGA_K`` at closure
level.  Closures of a round share subgraphs, so a sweep that reuses
certificates can show here.
"""

from __future__ import annotations

import random

from graphs import graph_report

IMPORTS = ()
ROUNDS = 4

GATE = (4, 2, 1)  # term size, environment length, largest sort
N_SAMPLE = 700  # typed closures per pass, of the 7,578
N_HEAVY = 40  # of them, those ranked costliest by the proxy
N_ORACLE = 12  # sampled closures whose certificates a plain BFS re-derives

OMEGA = "(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))"
OMEGA_K = ("(appl (abst *0 (appl *1 (appl #0 #0)))"
           " (abst *0 (appl *1 (appl #0 #0))))")


def build(lc, seed: int) -> dict:
    """The ``N_HEAVY`` closures ranked highest by a cost proxy, and a
    systematic sample of the rest from a seeded offset along that ranking,
    all put back in enumeration order.

    The proxy is the number of one-step extended reducts of the root times
    its number of closure successors.  The costliest closures cluster in
    enumeration order, so a sample taken along it hit or missed whole
    clusters: on measured per-closure costs its 99th percentile varied by
    18% between seeds (quartile spread over 60 seeds), and still by 10%
    along the proxy.  Taking all of the highest-ranked closures fixes the
    tail of every sample, and the quartile spread of the simulated 99th
    percentile drops to zero; that of the total stays at 2%.
    """

    P = lc.Params()
    typed = [c for c in lc.enumerate_closures(*GATE) if lc.aaa(*c) is not None]
    proxy = [
        len(lc.cpx_reducts(P, env, term)) * len(lc.fpb_successors(P, env, term))
        for env, term in typed
    ]
    ranked = sorted(range(len(typed)), key=lambda i: (proxy[i], i))
    rest, heavy = ranked[:-N_HEAVY], ranked[-N_HEAVY:]
    rng = random.Random(seed)
    step = len(rest) / (N_SAMPLE - N_HEAVY)
    start = rng.random() * step
    picked = heavy + [rest[int(start + i * step)] for i in range(N_SAMPLE - N_HEAVY)]
    sample = [typed[i] for i in sorted(picked)]
    return {
        "sample": sample,
        "oracle": sorted(rng.sample(range(N_SAMPLE), N_ORACLE)),
        "omega": lc.parse_term(OMEGA),
        "omega_k": lc.parse_term(OMEGA_K),
    }


def run_round(lc, inputs: dict, r: int, tally) -> list:
    P = lc.Params()
    fsb, csx = lc.fsb_certify, lc.csx_certify

    def both(env, term):
        return fsb(P, env, term), csx(P, env, term)

    out = [tally.op(both, env, term) for env, term in inputs["sample"][r::ROUNDS]]
    out.append(tally.op(csx, P, (), inputs["omega"]))
    out.append(tally.op(fsb, P, (), inputs["omega_k"]))
    return out


def _closes(path, step) -> bool:
    """Each node of ``path`` steps to the next, and the last to the first."""

    return all(step(a, b) for a, b in zip(path, path[1:] + path[:1]))


def verify(lc, inputs: dict, outs: list[list]) -> list[str]:
    """Check the rounds in ``outs``, the first ``len(outs)`` of a pass."""

    P = lc.Params()
    bad = []
    certs: dict[int, tuple] = {}  # sample index -> both certificates
    loops = []
    for r, out in enumerate(outs):
        certs.update(zip(range(r, N_SAMPLE, ROUNDS), out[:-2]))
        loops.append(out[-2:])
    for i, got in certs.items():
        if got is None:
            continue  # the call raised; counted as failed, not as wrong
        env, term = inputs["sample"][i]
        spot = f"{lc.print_env(env)} |- {lc.print_term(term)}"
        big, small = got
        if not isinstance(big, lc.BigTreeReport):
            bad.append(f"{spot}: fsb_certify gave {big}")
        if not isinstance(small, lc.SnReport):
            bad.append(f"{spot}: csx_certify gave {small}")
    for i in inputs["oracle"]:
        if certs.get(i) is None:
            continue
        env, term = inputs["sample"][i]
        spot = f"{lc.print_env(env)} |- {lc.print_term(term)}"
        big, small = certs[i]
        want = graph_report(
            lc.Closure(env, term),
            lambda c: lc.fpb_successors(P, *c),
        )
        if want != (big.nodes, big.edges, big.max_depth):
            bad.append(f"{spot}: fsb_certify says {big}, BFS says {want}")
        want = graph_report(
            term, lambda t: {r for r in lc.cpx_reducts(P, env, t) if r != t}
        )
        if want is None or (want[0], want[2]) != (small.nodes, small.max_depth):
            bad.append(f"{spot}: csx_certify says {small}, BFS says {want}")

    # Steps are decided by matching: a loop's full reduct sets can exceed
    # the budget.  A proper closure step enters a subclosure, reduces the
    # term, or reduces the environment in a way the term observes.
    def term_step(env, a, b):
        return a != b and lc.cpx_holds(P, env, a, b)

    def closure_step(a, b):
        (env1, t1), (env2, t2) = a, b
        return (
            b in lc.fqu_children(env1, t1)
            or (env1 == env2 and term_step(env1, t1, t2))
            or (t1 == t2 and lc.lpx_holds(P, env1, env2)
                and not lc.lleq_holds(0, t1, env1, env2))
        )

    for omega, omega_k in loops:
        if omega is not None and not (
            isinstance(omega, lc.Cycle)
            and _closes(list(omega.path), lambda a, b: term_step((), a, b))
        ):
            bad.append(f"OMEGA: csx_certify gave {omega}, not a term-level cycle")
        if omega_k is not None and not (
            isinstance(omega_k, lc.Cycle) and _closes(list(omega_k.path), closure_step)
        ):
            bad.append(f"OMEGA_K: fsb_certify gave {omega_k}, not a closure cycle")
    return bad
