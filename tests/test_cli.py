"""Command-line surface: exit codes, JSON shape, determinism, config."""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from lamcalc import parse_env, parse_term, print_env, print_term
from lamcalc.cli import run
from lamcalc.props import SUITES
from lamcalc.universe import enumerate_terms

OMEGA_SRC = "(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))"
OMEGA_K_SRC = (
    "(appl (abst *0 (appl *1 (appl #0 #0)))"
    " (abst *0 (appl *1 (appl #0 #0))))"
)


def invoke(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    code = run(argv, out=buf)
    text = buf.getvalue()
    assert text.endswith("\n") and "\n" not in text[:-1]
    return code, json.loads(text)


def test_parse_canonicalizes():
    code, payload = invoke(["parse", "(appl  *0   #1 )"])
    assert code == 0
    assert payload == {"ok": True, "result": "(appl *0 #1)"}


def test_parse_error_is_input_error():
    code, payload = invoke(["parse", "(appl *0"])
    assert code == 2
    assert payload["ok"] is False
    assert payload["result"] is None
    assert "error" in payload


@pytest.mark.parametrize(
    "arg",
    ["*\u00b2", "*\u0663", "*" + "9" * 5000, "[dec #\u00b2]"],
    ids=["superscript", "arabic-indic", "5000-digits", "in-env"],
)
def test_non_ascii_or_overlong_numeral_is_input_error(arg):
    argv = ["parse", arg] if arg[0] != "[" else ["check", "--env", arg, "*0"]
    code, payload = invoke(argv)
    assert code == 2
    assert payload["ok"] is False and payload["result"] is None
    assert "number" in payload["error"]


def test_unknown_command_is_input_error():
    code, payload = invoke(["frobnicate", "*0"])
    assert code == 2 and payload["ok"] is False


def test_bad_flag_value_is_input_error():
    code, payload = invoke(["stype", "--n", "many", "*0"])
    assert code == 2 and payload["ok"] is False


def test_check_valid_sort():
    code, payload = invoke(["check", "--env", "[]", "*0"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["result"] == {"valid": True, "failure": None}


def test_check_invalid_application():
    code, payload = invoke(["check", "(appl *0 (abst *0 #0))"])
    assert code == 1
    assert payload["ok"] is False
    valid, failure = payload["result"]["valid"], payload["result"]["failure"]
    assert valid is False
    assert failure is not None and len(failure) == 3


def test_arity_both_ways():
    code, payload = invoke(["arity", "(abst *0 #0)"])
    assert (code, payload["result"]) == (0, "(* -> *)")
    code, payload = invoke(["arity", "--env", "[dec *0]", "#0"])
    assert (code, payload["result"]) == (0, "*")
    code, payload = invoke(["arity", "#5"])
    assert code == 1 and payload["result"] is None


def test_degree_both_ways():
    code, payload = invoke(["degree", "*0"])
    assert (code, payload["result"]) == (0, 2)
    code, payload = invoke(["degree", "#3"])
    assert code == 1 and payload["result"] is None


def test_stype_iterates_sorts():
    code, payload = invoke(["stype", "--n", "3", "*1"])
    assert (code, payload["result"]) == (0, "*4")
    code, payload = invoke(["stype", "--n", "3", "#0"])
    assert code == 1 and payload["result"] is None


def test_negative_iteration_count_is_input_error():
    # a negative count used to print "*-1", which the parser rejects
    code, payload = invoke(["stype", "--n", "-1", "*0"])
    assert code == 2
    assert payload["ok"] is False and payload["result"] is None
    assert "--n" in payload["error"]


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--l", ["lleq", "--l", "-1", "--t", "#0", "[def *0]", "[def *1]"]),
        ("--size", ["props", "--suite", "statics-laws", "--size", "-1"]),
        ("--envlen", ["props", "--suite", "statics-laws", "--envlen", "-1"]),
        ("--maxsort", ["props", "--suite", "statics-laws", "--maxsort", "-2"]),
    ],
)
def test_negative_counts_are_input_errors(flag, argv):
    code, payload = invoke(argv)
    assert code == 2
    assert payload["ok"] is False and payload["result"] is None
    assert flag in payload["error"]


def test_nf_erases_annotation():
    code, payload = invoke(["nf", "--env", "[]", "(cast *0 *1)"])
    assert code == 0
    assert payload["result"] == "*1"


def test_nf_fuel_exhaustion_is_resource_error():
    code, payload = invoke(["nf", "--fuel", "3", OMEGA_SRC])
    assert code == 3
    assert payload["ok"] is False and "fuel" in payload["error"]


def test_reducts_sorted_and_deterministic():
    argv = ["reducts", "(appl *0 (abst *1 #0))"]
    code, payload = invoke(argv)
    assert code == 0
    assert payload["result"] == sorted(payload["result"])
    assert "(abbr (cast *1 *0) #0)" in payload["result"]
    assert invoke(argv) == (code, payload)


def test_reducts_extended_bumps_sorts():
    code, payload = invoke(["reducts", "--extended", "*0"])
    assert code == 0
    assert payload["result"] == ["*0", "*1"]


def test_conv_both_ways():
    code, payload = invoke(["conv", "(cast *0 *1)", "*1"])
    assert (code, payload["result"]) == (0, True)
    code, payload = invoke(["conv", "*0", "*1"])
    assert (code, payload["result"]) == (1, False)


def test_lleq_depends_on_level():
    base = ["lleq", "--t", "#0", "[def *0]", "[def *1]"]
    assert invoke(["lleq", "--l", "0"] + base[1:])[0] == 1
    assert invoke(["lleq", "--l", "1"] + base[1:])[0] == 0


def test_csx_report_on_sort():
    code, payload = invoke(["csx", "*0"])
    assert code == 0
    assert payload["result"] == {"nodes": 3, "max_depth": 2}


def test_csx_cycle_is_exit_four():
    code, payload = invoke(["csx", OMEGA_SRC])
    assert code == 4
    assert payload["ok"] is False
    assert payload["error"] == "cycle detected"
    assert len(payload["result"]["cycle"]) >= 2


def test_csx_budget_is_resource_error():
    code, payload = invoke(["csx", "--budget", "50", OMEGA_K_SRC])
    assert code == 3
    assert "budget" in payload["error"]


def test_bigtree_report_matches_library():
    code, payload = invoke(["bigtree", "(abst *1 #0)"])
    assert code == 0
    assert payload["result"] == {"nodes": 14, "edges": 36, "max_depth": 5}


def test_bigtree_cycle_is_exit_four():
    code, payload = invoke(["bigtree", OMEGA_K_SRC])
    assert code == 4
    assert payload["error"] == "cycle detected"
    assert all(" |- " in line for line in payload["result"]["cycle"])


def test_props_clean_suite_exits_zero():
    code, payload = invoke(
        ["props", "--suite", "statics-laws",
         "--size", "2", "--envlen", "1", "--maxsort", "1"]
    )
    assert code == 0
    assert payload["result"] == {
        "suite": "statics-laws", "counterexamples": []
    }


def test_props_rejects_unknown_suite():
    code, _ = invoke(["props", "--suite", "flat-earth"])
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "tuning.cfg"
    cfg.write_text("# sort step\nc = 2\nfuel=50\n")
    code, payload = invoke(["stype", "--n", "1", "--config", str(cfg), "*0"])
    assert (code, payload["result"]) == (0, "*2")
    code, payload = invoke(
        ["stype", "--n", "1", "--config", str(cfg), "--c", "3", "*0"]
    )
    assert (code, payload["result"]) == (0, "*3")
    code, payload = invoke(["stype", "--n", "1", "*0"])
    assert (code, payload["result"]) == (0, "*1")


def test_config_errors_are_input_errors(tmp_path):
    code, payload = invoke(["degree", "--config", "/does/not/exist", "*0"])
    assert code == 2 and "config" in payload["error"]
    bad = tmp_path / "bad.cfg"
    bad.write_text("wat = 7\n")
    code, payload = invoke(["degree", "--config", str(bad), "*0"])
    assert code == 2 and payload["ok"] is False
    not_num = tmp_path / "notnum.cfg"
    not_num.write_text("fuel = lots\n")
    code, payload = invoke(["degree", "--config", str(not_num), "*0"])
    assert code == 2 and "not a number" in payload["error"]
    not_utf8 = tmp_path / "notutf8.cfg"
    not_utf8.write_bytes(b"fuel = 7 \xff\n")
    code, payload = invoke(["degree", "--config", str(not_utf8), "*0"])
    assert code == 2 and "cannot read config" in payload["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "*0"],
        ["check", "(cast *1 *0)"],
        ["arity", "#9"],
        ["nf", OMEGA_SRC, "--fuel", "2"],
        ["csx", OMEGA_SRC],
        ["bigtree", OMEGA_K_SRC],
        ["parse", "(("],
        ["bogus"],
    ],
)
def test_every_output_is_one_json_line(argv):
    first = invoke(argv)
    second = invoke(argv)
    assert first == second  # bit-identical reruns


# Each subcommand's answer both ways, as the exact line it prints.
_PINNED = [
    (["parse", "(appl  *0   #1 )"], 0, '{"ok": true, "result": "(appl *0 #1)"}'),
    (["parse", "(appl *0"], 2,
     '{"error": "expected a term (at character 8)", "ok": false, "result": null}'),
    (["check", "*0"], 0, '{"ok": true, "result": {"failure": null, "valid": true}}'),
    (["check", "(appl *0 (abst *0 #0))"], 1,
     '{"ok": false, "result": {"failure": ["", "appl", '
     '"no iterated type abstracts over *1"], "valid": false}}'),
    (["arity", "(abst *0 #0)"], 0, '{"ok": true, "result": "(* -> *)"}'),
    (["arity", "#0"], 1,
     '{"error": "no applicability arity", "ok": false, "result": null}'),
    (["degree", "--env", "[dec *0]", "#0"], 0, '{"ok": true, "result": 3}'),
    (["degree", "#0"], 1, '{"error": "no degree", "ok": false, "result": null}'),
    (["stype", "--n", "2", "(abst *0 #0)"], 0,
     '{"ok": true, "result": "(abst *0 *1)"}'),
    (["stype", "--n", "2", "#0"], 1,
     '{"error": "no static type at 2", "ok": false, "result": null}'),
    (["stype"], 2, '{"error": "the following arguments are required: --n, term", '
     '"ok": false, "result": null}'),
    (["nf", "(appl *0 (abst *0 #0))"], 0, '{"ok": true, "result": "*0"}'),
    (["nf", "--fuel", "3", OMEGA_SRC], 3, '{"error": "fuel exhausted: no normal '
     'form within 3 rounds", "ok": false, "result": null}'),
    (["reducts", "(appl *0 (abst *0 #0))"], 0,
     '{"ok": true, "result": ["(abbr (cast *0 *0) #0)", "(appl *0 (abst *0 #0))"]}'),
    (["reducts", "--extended", "(cast *1 *0)"], 0,
     '{"ok": true, "result": ["(cast *1 *0)", "(cast *1 *1)", "(cast *2 *0)", '
     '"(cast *2 *1)", "*0", "*1", "*2"]}'),
    (["reducts", "--extended", "--budget", "0", "(appl *0 (abst *0 #0))"], 3,
     '{"error": "budget exceeded: reduct set would exceed 0 elements", '
     '"ok": false, "result": null}'),
    (["conv", "(appl *0 (abst *0 #0))", "*0"], 0, '{"ok": true, "result": true}'),
    (["conv", "*0", "*1"], 1, '{"ok": false, "result": false}'),
    (["conv", "*0"], 2, '{"error": "the following arguments are required: term2", '
     '"ok": false, "result": null}'),
    (["lleq", "--l", "0", "--t", "#0", "[dec *0]", "[dec *0]"], 0,
     '{"ok": true, "result": true}'),
    (["lleq", "--l", "0", "--t", "#0", "[dec *0]", "[dec *1]"], 1,
     '{"ok": false, "result": false}'),
    (["lleq"], 2, '{"error": "the following arguments are required: --l, --t, '
     'env1, env2", "ok": false, "result": null}'),
    (["csx", "(abst *1 #0)"], 0,
     '{"ok": true, "result": {"max_depth": 3, "nodes": 6}}'),
    (["csx", OMEGA_SRC], 4, '{"error": "cycle detected", "ok": false, "result": '
     '{"cycle": ["(appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))", '
     '"(abbr (cast *0 (abst *0 (appl #0 #0))) (appl #0 #0))"]}}'),
    (["bigtree", "(abst *1 #0)"], 0,
     '{"ok": true, "result": {"edges": 36, "max_depth": 5, "nodes": 14}}'),
    (["bigtree", OMEGA_SRC], 4, '{"error": "cycle detected", "ok": false, "result": '
     '{"cycle": ["[] |- (appl (abst *0 (appl #0 #0)) (abst *0 (appl #0 #0)))", '
     '"[] |- (abbr (cast *0 (abst *0 (appl #0 #0))) (appl #0 #0))"]}}'),
    (["props", "--suite", "diamond", "--size", "1", "--envlen", "0",
      "--maxsort", "0"], 0,
     '{"ok": true, "result": {"counterexamples": [], "suite": "diamond"}}'),
    (["props", "--suite", "nope"], 2, '{"error": "argument --suite: invalid choice: '
     "'nope' (choose from 'arity-preservation', 'church-rosser', 'diamond', "
     "'lleq-laws', 'sn-extended', 'statics-laws', 'subject-reduction', "
     "'very-big-tree')" '", "ok": false, "result": null}'),
    (["bogus"], 2, '{"error": "argument command: invalid choice: '
     "'bogus' (choose from 'parse', 'check', 'arity', 'degree', 'stype', 'nf', "
     "'reducts', 'conv', 'lleq', 'csx', 'bigtree', 'props')" '", "ok": false, '
     '"result": null}'),
]


@pytest.mark.parametrize("argv, code, line", _PINNED)
def test_pinned_output(argv, code, line):
    buf = io.StringIO()
    assert run(argv, out=buf) == code
    assert buf.getvalue() == line + "\n"


def test_readme_lists_the_subcommands_in_parser_order():
    _, payload = invoke(["bogus"])
    choices = re.findall(r"'([a-z]+)'", payload["error"].split("choose from")[1])
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = readme.split("Subcommands:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([a-z]+)", listed) == choices


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lamcalc.cli", "parse", "*0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ok": True, "result": "*0"}


@pytest.mark.parametrize("depth", [170, 3000])
def test_deep_term_is_a_resource_error(depth):
    term = "*0"
    for _ in range(depth):
        term = f"(appl {term} (abst *1 #0))"
    code, payload = invoke(["nf", term])
    assert code == 3
    assert payload["ok"] is False and payload["result"] is None
    assert "error" in payload


# Terms of at most 4 constructors and environments of at most 2 entries,
# printed, plus a few malformed inputs.  Inputs this small, with a budget of
# at most 500 and fuel of at most 50, keep every command short: none comes
# near the guarded loop whose term-level graph grows without bound.
_TERMS = [print_term(t) for t in enumerate_terms(4, 2, 3)]
_ATOMS = [t for t in _TERMS if not t.startswith("(")]
_JUNK = [
    "", "(appl *0", "*-1", "#x", "(bogus *0 *1)", "[def]",
    "*\u00b2", "#\u0663", "*" + "9" * 5000,
]


def _mostly(good: st.SearchStrategy) -> st.SearchStrategy:
    """``good`` nine times in ten, else a malformed input."""

    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(_JUNK) if k == 5 else good
    )


# atoms as often as compound terms, which far outnumber them
_terms = st.one_of(st.sampled_from(_ATOMS), st.sampled_from(_TERMS))
_term_args = _mostly(_terms)
_env_args = _mostly(
    st.lists(
        st.tuples(st.sampled_from(["def", "dec"]), _terms),
        max_size=2,
    ).map(lambda es: "[" + "; ".join(f"{k} {t}" for k, t in es) + "]")
)
_small = st.integers(-2, 3).map(str)


@st.composite
def _argv(draw) -> list[str]:
    command = draw(
        st.sampled_from(
            ["parse", "check", "arity", "degree", "stype", "nf", "reducts",
             "conv", "lleq", "csx", "bigtree", "props"]
        )
    )
    argv = [command,
            "--fuel", str(draw(st.integers(0, 50))),
            "--budget", str(draw(st.integers(0, 500)))]
    for flag, values in (("--c", st.integers(1, 3)), ("--D", st.integers(0, 3))):
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if command == "props":
        return argv + [
            "--suite", draw(st.sampled_from(sorted(SUITES))),
            "--size", str(draw(st.integers(-1, 2))),
            "--envlen", str(draw(st.integers(-1, 2))),
            "--maxsort", str(draw(st.integers(-1, 1))),
        ]
    if command == "lleq":
        return argv + ["--l", draw(_small), "--t", draw(_term_args),
                       draw(_env_args), draw(_env_args)]
    if command != "parse":
        argv += ["--env", draw(_env_args)]
    if command == "stype":
        argv += ["--n", draw(_small)]
    if command == "reducts" and draw(st.booleans()):
        argv.append("--extended")
    argv.append(draw(_term_args))
    if command == "conv":
        argv.append(draw(_term_args))
    return argv


def _parses_back(command: str, result) -> None:
    """Every term or environment the CLI prints is one it can read."""

    if command in ("parse", "stype", "nf") and result is not None:
        assert print_term(parse_term(result)) == result
    elif command == "reducts" and result is not None:
        for text in result:
            assert print_term(parse_term(text)) == text
    elif command == "csx" and isinstance(result, dict) and "cycle" in result:
        for text in result["cycle"]:
            assert print_term(parse_term(text)) == text
    elif command == "bigtree" and isinstance(result, dict) and "cycle" in result:
        for text in result["cycle"]:
            env, term = text.split(" |- ")
            assert print_env(parse_env(env)) == env
            assert print_term(parse_term(term)) == term


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_argv())
def test_cli_fuzz_one_json_line_and_known_exit_code(argv):
    code, payload = invoke(argv)
    assert code in range(5)
    assert payload["ok"] is (code == 0)
    if code >= 2:
        assert "error" in payload
    _parses_back(argv[0], payload["result"])
