"""Command-line surface: exit codes, JSON shape, determinism, config."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from lamcalc.cli import run

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
