"""``cli-queries``: a stream of single judgments through ``lamcalc.cli.run``.

One long-lived process answers the stream, each call printing into its
own buffer.  A round is the whole stream, started with empty memo tables;
inside a round later queries may repeat earlier ones and so share work.

The inputs are seeded draws of typed gate closures and generated terms of
10 to a few hundred constructors (see ``families``).  Certifiers are left
out: they have their own workload.
"""

from __future__ import annotations

import io
import json
import math
import random

import families

IMPORTS = ("cli",)
ROUNDS = 1

GATE = (4, 2, 1)  # term size, environment length, largest sort
PER_GATE_KIND = 50  # gate-closure queries per kind and round
PER_FAMILY_KIND = 20  # generated terms per family, kind and round
PER_LLEQ_KIND = 40  # environment pairs per answer and round
REPEAT_SHARE = 0.15  # share of extra queries that repeat an earlier one
NO_SORT = "*9"  # no gate closure has this normal form: sorts never grow


def _depths(rng: random.Random, n: int, top: int) -> list[int]:
    """``n`` depths spread log-uniformly over 5..``top``, one from each
    of ``n`` equal strata, so every seed draws as many large terms."""

    lo, hi = math.log(5), math.log(top)
    return [
        int(round(math.exp(lo + (j + rng.random()) / n * (hi - lo))))
        for j in range(n)
    ]


def _gate_draws(lc, rng: random.Random, n: int) -> list[tuple[str, str]]:
    """``n`` typed closures drawn uniformly from the gate universe."""

    size, envlen, maxsort = GATE
    max_ref = envlen + size  # as enumerate_closures bounds references
    terms = lc.universe.enumerate_terms(size, maxsort, max_ref)
    envs = lc.universe.enumerate_envs(envlen, 2, maxsort, max_ref)
    out = []
    while len(out) < n:
        env, term = rng.choice(envs), rng.choice(terms)
        if lc.aaa(env, term) is not None:
            out.append((lc.print_env(env), lc.print_term(term)))
    return out


def _gate_query(what: str, env: str, term: str) -> dict:
    if what == "parse":
        return {"argv": ["parse", term], "kind": "exact", "code": 0, "want": term}
    if what == "conv-same":
        return {"argv": ["conv", "--env", env, term, f"(cast {NO_SORT} {term})"],
                "kind": "exact", "code": 0, "want": True}
    if what == "conv-other":
        return {"argv": ["conv", "--env", env, term, NO_SORT],
                "kind": "exact", "code": 1, "want": False}
    return {"argv": [what, "--env", env, term], "kind": f"gate-{what}",
            "env": env, "term": term}


def _family_query(what: str, f: dict) -> dict:
    t = f["term"]
    if what == "parse":
        argv, code, want = ["parse", t], 0, t
    elif what == "check":
        argv, code, want = ["check", t], 0, {"failure": None, "valid": f["valid"]}
    elif what == "stype":
        argv, code, want = ["stype", "--n", "1", t], 0, f["stype1"]
    elif what == "reducts":
        argv, code, want = ["reducts", t], 0, [t]
    elif what == "conv":
        holds = f["nf"] == "*0"
        argv, code, want = ["conv", t, "*0"], 0 if holds else 1, holds
    else:  # nf, arity, degree
        argv, code, want = [what, t], 0, f[what]
    return {"argv": argv, "kind": "exact", "code": code, "want": want}


def build(lc, seed: int) -> list[dict]:
    """The query stream: dicts with ``argv``, the ``kind`` of check and
    what is expected."""

    rng = random.Random(seed)
    queries: list[dict] = []

    gate_kinds = ["parse", "check", "nf", "reducts", "conv-same", "conv-other"]
    kinds = [k for k in gate_kinds for _ in range(PER_GATE_KIND)]
    rng.shuffle(kinds)
    for what, (env, term) in zip(kinds, _gate_draws(lc, rng, len(kinds))):
        queries.append(_gate_query(what, env, term))

    family_kinds = ["parse", "check", "nf", "arity", "degree", "stype", "conv"]
    for name, make in (("id", families.id_chain), ("abbr", families.abbr_chain),
                       ("abst", families.abst_tower)):
        # the reduct sets of the chains grow exponentially with depth
        for what in family_kinds + (["reducts"] if name == "abst" else []):
            for n in _depths(rng, PER_FAMILY_KIND, families.MAX_DEPTH[name]):
                queries.append(_family_query(what, make(n)))

    for linked in (False, True):
        for n in _depths(rng, PER_LLEQ_KIND, 100):
            p = families.lleq_pair(n, linked, rng.randint(1, n - 1))
            queries.append({"argv": ["lleq", "--l", "0", "--t", p["term"],
                                     p["env1"], p["env2"]],
                            "kind": "exact", "code": 0 if p["holds"] else 1,
                            "want": p["holds"]})

    rng.shuffle(queries)
    for _ in range(int(len(queries) * REPEAT_SHARE)):
        at = rng.randrange(1, len(queries))
        queries.insert(at, queries[rng.randrange(at)])
    return queries


def run_round(lc, queries: list[dict], r: int, tally) -> list[tuple[int, str]]:
    run = lc.cli.run
    out = []
    for q in queries:
        buf = io.StringIO()
        code = tally.op(run, q["argv"], buf)
        out.append((code, buf.getvalue()))
    return out


def _check_gate(lc, q: dict, code: int, result) -> str | None:
    P = lc.Params()
    env = lc.parse_env(q["env"])
    term = lc.parse_term(q["term"])
    what = q["kind"].split("-", 1)[1]
    if what != "check" and code != 0:
        return f"exit {code}"
    if what == "check":
        valid = lc.snv_oracle(P, env, term, 4)
        if code != (0 if valid else 1) or result["valid"] != valid:
            return f"checker says {result}, derivation search says {valid}"
    elif what == "nf":
        nf = lc.parse_term(result)
        if lc.cpr_reducts(env, nf) != frozenset([nf]):
            return f"normal form {result} still reduces"
        if not lc.cprs_holds(env, term, nf):
            return f"normal form {result} is not reachable from the input"
    elif what == "reducts":
        if q["term"] not in result or result != sorted(result):
            return "reduct list lacks the term itself or is unsorted"
        want = lc.normalize(env, term)
        for r in result:
            if lc.normalize(env, lc.parse_term(r)) != want:
                return f"reduct {r} is not convertible with the input"
    return None


def verify(lc, queries: list[dict], outs: list[list[tuple[int, str]]]) -> list[str]:
    """Problems with the answers, each naming its query; empty if none."""

    (outputs,) = outs
    bad = []
    for q, (code, text) in zip(queries, outputs):
        if code is None:
            continue  # the call raised; counted as failed, not as wrong
        lines = text.splitlines()
        try:
            payload = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict) or payload.get("ok") != (code == 0):
            bad.append(f"{q['argv']}: not one JSON object matching exit {code}")
            continue
        result = payload.get("result")
        if q["kind"] == "exact":
            if code != q["code"] or result != q["want"]:
                bad.append(f"{q['argv']}: got {code} {result!r}, "
                           f"want {q['code']} {q['want']!r}")
        else:
            problem = _check_gate(lc, q, code, result)
            if problem is not None:
                bad.append(f"{q['argv']}: {problem}")
    return bad
