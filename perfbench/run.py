"""lamcalc benchmark: one workload, one cold process, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lamcalc is imported from its ``src/``.
The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it, starting with ``#``, records the Python version, the
CPU count, the raw wall times and the round times; the same record is
written to ``.perfbench_out/`` in the checkout.

A pass is the workload's fixed set of operations, split into one or more
rounds; each round starts from empty memo tables.  ``--trace 0`` sets the
inputs up several times, then repeats whole passes until ``--seconds``
have passed and enough operations have been timed for a 99th percentile,
and reports the end-to-end metrics.  ``--trace 1`` runs the first round
of a pass once plain and once profiled, and reports the per-layer
metrics.  All times are seconds at the reference speed of
``refclock``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager

import certify_sn
import cli_queries
import coldstart
import sweep_laws
import tracing
from refclock import Clock

WORKLOADS = {
    "sweep-laws": sweep_laws,
    "certify-sn": certify_sn,
    "cli-queries": cli_queries,
}

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Set-ups per run, setup_s being their median: at least the first number,
# and more, up to the second, while they have taken less than SETUP_S.
SETUPS = (3, 20)
SETUP_S = 2.0
MIN_LATENCY_OPS = 1400  # so that fourteen or more lie beyond the 99th percentile
OUT_DIR = coldstart.SRC.parent / ".perfbench_out"


class Tally:
    """Counts the operations of one round and times those with a latency."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.spans: list[tuple[float, float]] = []
        self.phases: dict[str, float] = {}
        self.errors: list[str] = []

    def _fail(self, e: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(e).__name__}: {e}"[:200])

    def call(self, fn, *args):
        """Run one operation; ``None`` if it raised."""

        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # an operation that fails is counted, not fatal
            self._fail(e)
            return None

    def op(self, fn, *args):
        """Like :meth:`call`, and time the operation if it succeeds."""

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:
            self._fail(e)
            return None
        self.spans.append((t0, time.perf_counter()))
        return out

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0


def _setup(wl, seed: int):
    lc = coldstart.fresh_import(*wl.IMPORTS)
    memo = coldstart.MemoTables()
    inputs = wl.build(lc, seed)
    memo.clear()
    return lc, memo, inputs


def _pass(wl, lc, memo, inputs, tally: Tally, rounds: int, after_round=None):
    """The first ``rounds`` rounds of a pass, each from empty memo tables.

    Returns the wall spans of the rounds and their outputs.
    """

    spans, outs = [], []
    for r in range(rounds):
        memo.clear()
        memo.check_cold()
        t0 = time.perf_counter()
        outs.append(wl.run_round(lc, inputs, r, tally))
        spans.append((t0, time.perf_counter()))
        if after_round is not None:
            after_round()
    return spans, outs


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tally = Tally()
    passes: list[list[tuple[float, float]]] = []
    problems: list[str] = []
    with Clock() as clock:
        setups = []
        while len(setups) < SETUPS[0] or (
            len(setups) < SETUPS[1] and sum(b - a for a, b in setups) < SETUP_S
        ):
            t0 = time.perf_counter()
            lc, memo, inputs = _setup(wl, args.seed)
            setups.append((t0, time.perf_counter()))
            if args.trace:
                break
        # A traced run profiles the first round only, which keeps a
        # certify-sn run well under three minutes.
        rounds = 1 if args.trace else wl.ROUNDS
        start = time.perf_counter()
        first = None
        while True:
            if args.trace and passes:
                traced = Tally()
                with clock.hold(), tracing.Trace(memo) as trace:
                    spans, outs = _pass(wl, lc, memo, inputs, traced, rounds,
                                        trace.count_memo)
                layer = trace.metrics(traced.phases)
                tally.attempted += traced.attempted
                tally.failed += traced.failed
                tally.errors += traced.errors
            else:
                spans, outs = _pass(wl, lc, memo, inputs, tally, rounds)
            passes.append(spans)
            if first is None:
                first = outs
            elif outs != first:
                problems.append(f"pass {len(passes)} answered differently")
            if args.trace:
                if len(passes) == 2:
                    break
            elif (time.perf_counter() - start >= args.seconds
                  and len(tally.spans) >= MIN_LATENCY_OPS):
                break

    problems += wl.verify(lc, inputs, first)
    scaled = [sum(clock.scaled(a, b) for a, b in spans) for spans in passes]
    raw = [sum(b - a - clock.handler_time(a, b) for a, b in spans) for spans in passes]
    if args.trace:
        metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER.items()}
        metrics["trace.overhead_ratio"] = (scaled[1] / scaled[0], "ratio")
    else:
        latencies = [1000 * clock.scaled(a, b) for a, b in tally.spans]
        metrics = {
            "setup_s": statistics.median(clock.scaled(a, b) for a, b in setups),
            "total_s": statistics.median(scaled),
            "op_p50_ms": statistics.median(latencies),
            "op_p99_ms": _percentile(latencies, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "passes": len(passes),
        "pass_s_scaled": [round(x, 4) for x in scaled],
        "pass_s_raw": [round(x, 4) for x in raw],
        "setup_s_raw": [round(b - a - clock.handler_time(a, b), 4) for a, b in setups],
        "reference": {k: round(v, 4) for k, v in clock.reference_summary().items()},
        "errors": tally.errors,
        "problems": problems[:10],
    }
    for line in problems[:10]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=1))
    print("# " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
