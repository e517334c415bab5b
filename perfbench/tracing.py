"""Per-layer metrics, measured from outside the kernel.

The layers are the modules of ``src/lamcalc``.  One pass runs under
``cProfile``; its raw entries attribute self time and call counts to each
function, and each function to the module that defines it (the methods a
dataclass generates count for the module of the class).  A module's self
time includes the built-in calls its functions make directly.
``gc.callbacks`` time the collector, the memo tables are counted after
each round, and thin wrappers around the certifiers' phase functions
count cycle-scan hits and explored nodes.
"""

from __future__ import annotations

import cProfile
import gc
import sys
import time
import types

from coldstart import SRC
from sweep_laws import SUITES

__all__ = ["PER_LAYER", "Trace"]

# Every per-layer metric with its unit, in the order they are printed.
PER_LAYER: dict[str, str] = {
    "terms.hash_calls": "count",
    "terms.eq_calls": "count",
    "terms.self_s": "s",
    "universe.self_s": "s",
    "universe.key_calls": "count",
    "sexpr.self_s": "s",
    "cli.overhead_s": "s",
    "cli.calls": "count",
    "relocation.self_s": "s",
    "relocation.calls": "count",
    "reduction.self_s": "s",
    "reduction.cpr_reducts_calls": "count",
    "reduction.memo_entries": "count",
    "reduction.memo_hit_ratio": "ratio",
    "statics.self_s": "s",
    "statics.memo_entries": "count",
    "arity.self_s": "s",
    "arity.memo_entries": "count",
    "extended.self_s": "s",
    "extended.step_to_calls": "count",
    "extended.cpx_bounded_calls": "count",
    "extended.memo_entries": "count",
    "extended.cycle_scan_s": "s",
    "bigtree.self_s": "s",
    "bigtree.closure_scan_s": "s",
    "bigtree.fpb_holds_calls": "count",
    "bigtree.bounded_graph_s": "s",
    "bigtree.fallback_runs": "count",
    "bigtree.scan_hit_ratio": "ratio",
    "traversal.self_s": "s",
    "traversal.explore_calls": "count",
    "traversal.nodes": "count",
    "validity.self_s": "s",
    "validity.snv_check_calls": "count",
    "validity.oracle_agreement_s": "s",
    **{f"props.{name}_s": "s" for name in SUITES},
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_ratio": "ratio",
}

_TERM_CLASSES = ("Sort", "Var", "Bind", "Flat")


def _lamcalc_modules() -> dict[str, types.ModuleType]:
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("lamcalc.") and mod is not None
    }


def _code_owners(modules: dict[str, types.ModuleType]) -> dict[object, str]:
    """Module name for each code object of a class method; plain
    functions are placed by file name instead."""

    owners: dict[object, str] = {}
    for short, mod in modules.items():
        for cls in vars(mod).values():
            if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                continue
            for member in vars(cls).values():
                func = getattr(member, "__func__", member)
                code = getattr(func, "__code__", None)
                if code is not None:
                    owners[code] = short
    return owners


class Trace:
    """Profile one pass; then :meth:`metrics` gives every per-layer metric."""

    def __init__(self, memo) -> None:
        self.memo = memo
        self.profile = cProfile.Profile()
        self.gc_s = 0.0
        self.gc_n = 0
        self._gc_t0 = 0.0
        self.scans = 0
        self.scan_hits = 0
        self.bigtree_explores = 0
        self.nodes = 0
        self.memo_entries: dict[str, int] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # --- wrappers around phase functions --------------------------------

    def _patch(self, mod, attr: str, wrapper) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _install(self, modules) -> None:
        bigtree, traversal = modules.get("bigtree"), modules.get("traversal")
        scan = getattr(bigtree, "_closure_scan", None)
        if scan is not None:
            def counted_scan(*args, **kwargs):
                got = scan(*args, **kwargs)
                self.scans += 1
                self.scan_hits += got is not None
                return got

            self._patch(bigtree, "_closure_scan", counted_scan)
        explore = getattr(traversal, "explore", None)
        if explore is None:
            return
        for short, mod in modules.items():
            if getattr(mod, "explore", None) is explore:
                self._patch(mod, "explore", self._counted_explore(explore, short))

    def _counted_explore(self, explore, caller: str):
        def counted(*args, **kwargs):
            got = explore(*args, **kwargs)
            self.bigtree_explores += caller == "bigtree"
            if isinstance(got, tuple):  # (nodes, edges, depth), not a Cycle
                self.nodes += got[0]
            return got

        return counted

    def count_memo(self) -> None:
        """Add the memo tables' entries; call at the end of each round."""

        for mod, n in self.memo.entries_by_module().items():
            self.memo_entries[mod] = self.memo_entries.get(mod, 0) + n

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_n += 1

    def __enter__(self) -> "Trace":
        self._install(_lamcalc_modules())
        gc.collect()  # start from the same collector state in every run
        gc.callbacks.append(self._gc_callback)
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        gc.callbacks.remove(self._gc_callback)
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- metrics -----------------------------------------------------------

    def metrics(self, phases: dict[str, float]) -> dict[str, float]:
        modules = _lamcalc_modules()
        owners = _code_owners(modules)
        by_file = {
            str(SRC / "lamcalc" / f"{short}.py"): short for short in modules
        }
        term_codes = {
            kind: {
                getattr(modules["terms"], cls).__dict__[kind].__code__
                for cls in _TERM_CLASSES
                if kind in getattr(modules["terms"], cls).__dict__
            }
            for kind in ("__hash__", "__eq__")
        }

        def owner(code) -> str | None:
            if not isinstance(code, types.CodeType):
                return None
            return owners.get(code) or by_file.get(code.co_filename)

        self_s: dict[str, float] = {}
        calls: dict[tuple[str, str], int] = {}
        total: dict[tuple[str, str], float] = {}
        module_calls: dict[str, int] = {}
        hash_calls = eq_calls = 0
        judgment_s = 0.0  # time in judgments called from cli.py
        for entry in self.profile.getstats():
            mod = owner(entry.code)
            if mod is None:
                continue
            t = entry.inlinetime
            for sub in entry.calls or ():
                if not isinstance(sub.code, types.CodeType):
                    t += sub.inlinetime  # built-in called from this module
                elif mod == "cli" and owner(sub.code) not in (None, "cli", "sexpr"):
                    judgment_s += sub.totaltime
            self_s[mod] = self_s.get(mod, 0.0) + t
            key = (mod, entry.code.co_qualname)
            calls[key] = calls.get(key, 0) + entry.callcount
            total[key] = total.get(key, 0.0) + entry.totaltime
            module_calls[mod] = module_calls.get(mod, 0) + entry.callcount
            if entry.code in term_codes["__hash__"]:
                hash_calls += entry.callcount
            if entry.code in term_codes["__eq__"]:
                eq_calls += entry.callcount

        def n(mod: str, name: str) -> int:
            return calls.get((mod, name), 0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        lookups = n("reduction", "cpr_reducts")
        scans_missed = self.scans - self.scan_hits
        out: dict[str, float] = {
            "terms.hash_calls": hash_calls,
            "terms.eq_calls": eq_calls,
            "universe.key_calls": sum(
                c for (mod, name), c in calls.items()
                if mod == "universe" and name.endswith("_key")
            ),
            "cli.overhead_s": total.get(("cli", "run"), 0.0) - judgment_s,
            "cli.calls": n("cli", "run"),
            "relocation.calls": module_calls.get("relocation", 0),
            "reduction.cpr_reducts_calls": lookups,
            "reduction.memo_hit_ratio": ratio(lookups - n("reduction", "_reducts"), lookups),
            "extended.step_to_calls": n("extended", "_step_to"),
            "extended.cpx_bounded_calls": n("extended", "_cpx_bounded"),
            "extended.cycle_scan_s": total.get(("extended", "_cycle_scan"), 0.0),
            "bigtree.closure_scan_s": total.get(("bigtree", "_closure_scan"), 0.0),
            "bigtree.fpb_holds_calls": n("bigtree", "_fpb_holds"),
            "bigtree.bounded_graph_s": total.get(("bigtree", "_bounded_successors"), 0.0),
            "bigtree.fallback_runs": self.bigtree_explores - scans_missed,
            "bigtree.scan_hit_ratio": ratio(self.scan_hits, self.scans),
            "traversal.explore_calls": n("traversal", "explore"),
            "traversal.nodes": self.nodes,
            "validity.snv_check_calls": n("validity", "snv_check"),
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_n,
        }
        for mod in ("reduction", "statics", "arity", "extended"):
            out[f"{mod}.memo_entries"] = self.memo_entries.get(mod, 0)
        for name in PER_LAYER:
            mod, _, what = name.partition(".")
            if what == "self_s":
                out[name] = self_s.get(mod, 0.0)
            elif name in phases:
                out[name] = phases[name]
            out.setdefault(name, 0)
        return {name: out[name] for name in PER_LAYER}
