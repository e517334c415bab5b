"""Quick self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

1. Every workload, plain and traced, prints one result line holding
   every metric that ``BENCHMARK.json`` names for that mode, each with
   its unit, and finds its answers correct.
2. A deliberately wrong expected answer (an arity of a generated term,
   a graph size from the BFS oracle) or a wrong answer (a made-up
   counterexample) makes each workload's correctness check fail.

Exits 0 when all checks pass.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import certify_sn
import cli_queries
import coldstart
import graphs
import run
import sweep_laws

TINY = [
    (sweep_laws, {"BOUNDS": (3, 1, 0)}),
    (certify_sn, {"N_SAMPLE": 8, "N_HEAVY": 2, "N_ORACLE": 2}),
    (cli_queries, {"PER_GATE_KIND": 2, "PER_FAMILY_KIND": 2, "PER_LLEQ_KIND": 2}),
    (run, {"MIN_LATENCY_OPS": 10, "SETUPS": (1, 1)}),
]


@contextlib.contextmanager
def patched(module, **values):
    old = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(module, name, value)


def run_tiny(workload: str, trace: int) -> dict:
    with contextlib.ExitStack() as stack:
        for module, values in TINY:
            stack.enter_context(patched(module, **values))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "7",
                             "--seconds", "0", "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(bench: dict) -> list[str]:
    bad = []
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = run_tiny(wl["name"], trace)
            if set(got) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{wl['name']} trace {trace}: keys {sorted(got)}")
            if got["correct"] is not True or got["attempted"] < 1:
                bad.append(f"{wl['name']} trace {trace}: {got['correct']}, "
                           f"{got['attempted']} attempted")
            want = {m["name"]: m["unit"] for m in bench[key]}
            have = {name: m["unit"] for name, m in got["metrics"].items()}
            if have != want:
                bad.append(f"{wl['name']} trace {trace}: metrics differ from "
                           f"BENCHMARK.json: {sorted(set(have) ^ set(want))}")
            values = [m["value"] for m in got["metrics"].values()]
            if not all(isinstance(v, (int, float)) for v in values):
                bad.append(f"{wl['name']} trace {trace}: non-numeric value")
    return bad


def check_detects_wrong_answers() -> list[str]:
    tower, report = cli_queries.families.abst_tower, graphs.graph_report
    sweep = sweep_laws.run_round

    def wrong_arity(n: int) -> dict:
        f = tower(n)
        f["arity"] = "*"
        return f

    def wrong_graph(root, successors):
        nodes, edges, depth = report(root, successors)
        return nodes + 1, edges, depth

    def with_counterexample(*args):
        out = sweep(*args)
        out["diamond"] = out["diamond"] + ["[] |- *0: made up"]
        return out

    cases = [
        ("cli-queries", cli_queries.families, {"abst_tower": wrong_arity}),
        ("certify-sn", certify_sn, {"graph_report": wrong_graph}),
        ("sweep-laws", sweep_laws, {"run_round": with_counterexample}),
    ]
    bad = []
    for workload, module, values in cases:
        with patched(module, **values):
            got = run_tiny(workload, 0)
        if got["correct"] is not False:
            bad.append(f"{workload}: a wrong expected answer went unnoticed")
    return bad


def main() -> int:
    bench = json.loads((coldstart.SRC.parent / "BENCHMARK.json").read_text())
    problems = check_metrics(bench) + check_detects_wrong_answers()
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
