"""The six shipped scenarios render the reports pinned under tests/golden/,
byte for byte.

Every report is byte-stable across BLAS thread counts; the Landau ground
level in ``nctorus.json`` is a Rayleigh quotient summed exactly
(``opcore.lowest_eigenvalue``), so its bits do not depend on the thread
count either.
"""

import json
import pathlib

import pytest

from dfslab.cli import run_scenario
from dfslab.reporting import canonical_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def render(stem):
    scenario = json.loads((ROOT / "scenarios" / f"{stem}.json").read_text(encoding="utf-8"))
    return canonical_json(run_scenario(scenario))


@pytest.mark.parametrize("stem", ["decohere", "dfs", "distance", "duality", "nctorus", "symmetrize"])
def test_shipped_report_is_byte_identical_to_its_golden(stem):
    assert render(stem) == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
