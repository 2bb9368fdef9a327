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


def test_readme_explains_every_result_field():
    """Each results key of the six shipped reports (the duality one with a
    substitution) is named in its kind's README paragraph, the one that
    begins "A `kind` report's results are"."""
    paragraphs = (ROOT / "README.md").read_text(encoding="utf-8").split("\n\n")
    for stem in ("decohere", "dfs", "distance", "duality", "nctorus", "symmetrize"):
        report = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
        if stem == "duality":
            assert "substitution" in report["scenario"]
        mine = [p for p in paragraphs if p.startswith((f"A `{stem}` report's results", f"An `{stem}` report's results"))]
        assert len(mine) == 1, stem
        for key in report["results"]:
            assert f"`{key}`" in mine[0], (stem, key)
