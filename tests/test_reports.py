"""The six shipped scenarios render the reports pinned under tests/golden/,
byte for byte.

Every report is byte-stable across BLAS thread counts; the Landau ground
level in ``nctorus.json`` is a Rayleigh quotient summed exactly
(``opcore.lowest_eigenvalue``), so its bits do not depend on the thread
count either.
"""

import json
import pathlib
import re

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


def test_readme_tolerances_table_names_every_bound():
    """Each module constant of ``src/dfslab`` named ``*_TOL``, ``*_FLOOR``,
    ``*_SLACK`` or ``*_CAP`` has a row of the README's Tolerances table,
    whose module column names the module that defines it."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, _, module = (cell.strip() for cell in line.strip("|").split(" | ")[:3])
            rows.update((name, module) for name in re.findall(r"`(\w+)`", names))
    defined = {}
    for path in sorted((ROOT / "src" / "dfslab").glob("*.py")):
        for name in re.findall(r"^([A-Z][A-Z0-9_]*_(?:TOL|FLOOR|SLACK|CAP)) *=", path.read_text(encoding="utf-8"), re.M):
            defined[name] = f"`{path.stem}`"
    assert defined, "no tolerance constants found"
    missing = sorted(set(defined) - set(rows))
    assert not missing, missing
    assert {name: rows[name] for name in defined} == defined
