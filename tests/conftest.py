from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from lamcalc import Params

# Reproducible property tests on CI (GitHub Actions sets CI): the same
# examples every run, and a failure prints the blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def params() -> Params:
    return Params()
