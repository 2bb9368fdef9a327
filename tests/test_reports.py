"""The six shipped scenarios render the reports pinned under tests/golden/.

Five kinds are byte-stable across BLAS thread counts and are compared byte
for byte.  The last digits of the Landau ground level in ``nctorus.json``
depend on the thread count, so that report is compared key by key, with
verdicts exact and numbers to 1e-12 relative.
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


@pytest.mark.parametrize("stem", ["decohere", "dfs", "distance", "duality", "symmetrize"])
def test_shipped_report_is_byte_identical_to_its_golden(stem):
    assert render(stem) == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


def assert_close(got, want, where="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)), where
    else:
        assert type(got) is type(want) and got == want, where


def test_shipped_nctorus_report_matches_its_golden():
    got = json.loads(render("nctorus"))
    want = json.loads((GOLDEN / "nctorus.json").read_text(encoding="utf-8"))
    assert_close(got, want)
