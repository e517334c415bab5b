"""Command-line surface for the calculus.

Every invocation prints exactly one JSON object on standard output:
``{"ok": bool, "result": ...}`` plus an ``"error"`` key when something
went wrong.  Exit codes: 0 the judgment holds or the command succeeded,
1 it does not hold, 2 the input was malformed, 3 a fuel or budget limit
was hit, the input nests too deep for the interpreter's stack, or the
process ran out of memory, 4 a certification traversal found a cycle.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import IO, Callable, Sequence

from .arity import aaa
from .bigtree import fsb_certify
from .errors import BudgetExceeded, FuelExhausted
from .extended import cpx_reducts, csx_certify, lleq_holds
from .props import SUITES, run_suite
from .reduction import conv, cpr_reducts, normalize
from .sexpr import ParseError, parse_env, parse_term, print_closure, print_term
from .statics import da, lstas
from .terms import Env, Params, Term
from .traversal import Cycle
from .validity import snv_check

__all__ = ["main", "run"]

# Each calculus parameter's config key, which is also its flag after
# ``--``, and its ``Params`` field.
_FIELDS = {"c": "c", "D": "big_d", "fuel": "fuel", "budget": "budget"}

_EXIT_OK = 0
_EXIT_FAILS = 1
_EXIT_INPUT = 2
_EXIT_RESOURCES = 3
_EXIT_CYCLE = 4

# An invocation's exit code, JSON result and error message.
_Answer = tuple[int, object, str | None]


class _CliError(Exception):
    """Bad invocation or unreadable input; reported as exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _read_config(path: str) -> dict[str, int]:
    """The ``Params`` fields that the config file at ``path`` sets."""

    out: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError(f"cannot read config {path}: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _FIELDS:
            raise _CliError(f"config {path}:{lineno}: expected one of "
                            f"{', '.join(sorted(_FIELDS))} = <number>")
        try:
            out[_FIELDS[key]] = int(value.strip())
        except ValueError as e:
            raise _CliError(f"config {path}:{lineno}: {value.strip()!r} "
                            "is not a number") from e
    return out


def _params(args: argparse.Namespace) -> Params:
    fields = {} if args.config is None else _read_config(args.config)
    for field in _FIELDS.values():
        if getattr(args, field) is not None:
            fields[field] = getattr(args, field)
    try:
        return Params(**fields)
    except ValueError as e:
        raise _CliError(str(e)) from e


def _natural(text: str) -> int:
    """An argument that must be a non-negative integer."""

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _holds(b: bool) -> _Answer:
    return (_EXIT_OK if b else _EXIT_FAILS), b, None


def _defined(value: object, show: Callable, error: str) -> _Answer:
    """``show(value)``, or ``error`` when the judgment assigns no value."""

    if value is None:
        return _EXIT_FAILS, None, error
    return _EXIT_OK, show(value), None


def _certificate(got: object, show: Callable) -> _Answer:
    """A certifier's report, or its cycle with each node shown."""

    if isinstance(got, Cycle):
        return _EXIT_CYCLE, {"cycle": [show(n) for n in got.path]}, "cycle detected"
    return _EXIT_OK, asdict(got), None


def _check(params: Params, env: Env, t: Term, args: argparse.Namespace) -> _Answer:
    report = snv_check(params, env, t)
    return (_EXIT_OK if report.valid else _EXIT_FAILS), asdict(report), None


# The subcommands that judge one term under ``--env``, each as
# ``answer(params, env, term, args)``.
_ON_A_TERM: dict[str, Callable[..., _Answer]] = {
    "check": _check,
    "arity": lambda p, e, t, a: _defined(aaa(e, t), str, "no applicability arity"),
    "degree": lambda p, e, t, a: _defined(da(p, e, t), int, "no degree"),
    "stype": lambda p, e, t, a: _defined(lstas(p, e, t, a.n), print_term,
                                         f"no static type at {a.n}"),
    "nf": lambda p, e, t, a: (_EXIT_OK, print_term(normalize(e, t, p.fuel)), None),
    "reducts": lambda p, e, t, a: (_EXIT_OK, sorted(map(print_term, (
        cpx_reducts(p, e, t) if a.extended else cpr_reducts(e, t, p.budget)))), None),
    "csx": lambda p, e, t, a: _certificate(csx_certify(p, e, t), print_term),
    "bigtree": lambda p, e, t, a: _certificate(fsb_certify(p, e, t),
                                               lambda c: print_closure(*c)),
}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    for key, field in _FIELDS.items():
        common.add_argument(f"--{key}", dest=field, type=int, default=None)
    common.add_argument("--config", default=None)

    top = _Parser(prog="lamcalc", add_help=False)
    sub = top.add_subparsers(dest="command", required=True)
    # in this order in the usage and error messages
    for name in ("parse", "check", "arity", "degree", "stype", "nf", "reducts",
                 "conv", "lleq", "csx", "bigtree", "props"):
        p = sub.add_parser(name, add_help=False, parents=[common])
        if name in _ON_A_TERM or name == "conv":
            p.add_argument("--env", default="[]")
        if name == "stype":
            p.add_argument("--n", type=_natural, required=True)
        elif name == "reducts":
            p.add_argument("--extended", action="store_true")
        elif name == "conv":
            p.add_argument("term1")
            p.add_argument("term2")
        elif name == "lleq":
            p.add_argument("--l", type=_natural, required=True)
            p.add_argument("--t", required=True)
            p.add_argument("env1")
            p.add_argument("env2")
        elif name == "props":
            p.add_argument("--suite", required=True, choices=sorted(SUITES))
            p.add_argument("--size", type=_natural, default=3)
            p.add_argument("--envlen", type=_natural, default=1)
            p.add_argument("--maxsort", type=_natural, default=1)
        if name in _ON_A_TERM or name == "parse":
            p.add_argument("term")
    return top


# Built once: parsing leaves the parser unchanged.
_PARSER = _build_parser()


def _dispatch(args: argparse.Namespace) -> _Answer:
    params = _params(args)
    if args.command == "parse":
        return _EXIT_OK, print_term(parse_term(args.term)), None
    if args.command == "props":
        bad = run_suite(args.suite, params, args.size, args.envlen, args.maxsort)
        result = {"suite": args.suite, "counterexamples": bad}
        return (_EXIT_OK if not bad else _EXIT_FAILS), result, None
    if args.command == "lleq":
        return _holds(lleq_holds(args.l, parse_term(args.t),
                                 parse_env(args.env1), parse_env(args.env2)))
    if args.command == "conv":
        return _holds(conv(parse_env(args.env), parse_term(args.term1),
                           parse_term(args.term2), params.fuel))
    return _ON_A_TERM[args.command](params, parse_env(args.env),
                                    parse_term(args.term), args)


def run(argv: Sequence[str], out: IO[str] | None = None) -> int:
    """Execute one invocation, print its JSON result, return the exit code."""

    stream = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(list(argv))
        code, result, error = _dispatch(args)
    except (_CliError, ParseError) as e:
        code, result, error = _EXIT_INPUT, None, str(e)
    except FuelExhausted as e:
        code, result, error = _EXIT_RESOURCES, None, f"fuel exhausted: {e}"
    except BudgetExceeded as e:
        code, result, error = _EXIT_RESOURCES, None, f"budget exceeded: {e}"
    except RecursionError as e:
        code, result, error = _EXIT_RESOURCES, None, f"nesting too deep: {e}"
    except MemoryError:
        code, result, error = _EXIT_RESOURCES, None, "out of memory"
    payload: dict[str, object] = {"ok": code == _EXIT_OK, "result": result}
    if error is not None:
        payload["error"] = error
    print(json.dumps(payload, sort_keys=True), file=stream)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
