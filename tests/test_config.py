"""The repository's pytest configuration, run on a test of its own."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_property_test_keeps_its_report(tmp_path):
    """Under the repository's warning filters, a failing hypothesis test
    prints its falsifying example rather than an ``INTERNALERROR``: the
    report imports code that warns, and every warning is an error."""

    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert done.returncode == 1, out
