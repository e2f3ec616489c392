"""The shipped scenarios, run in-process, against `bench/reference/`.

The benchmark checks the same CSVs, but only when it runs; here a reordered
or drifted row fails the suite.  The `# generated` timestamp is skipped.
The column header, the row count and the label columns (`kind`, `m`, `n`)
must match exactly, every other cell to 1e-12 relative (NaN matches NaN).
The reference files are only read.  Each scenario runs with warnings turned
into errors, so a shipped scenario that starts to warn fails here.
"""

import math
import warnings

import pytest

from cavitymix.scenarios import load_scenario, run_scenario
from conftest import REPO_ROOT, SCENARIO_DIR

REFERENCE_DIR = REPO_ROOT / "bench" / "reference"
CSV_RTOL = 1e-12
LABELS = ("kind", "m", "n")


def _content_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def _close(x, y):
    fx, fy = float(x), float(y)
    if math.isnan(fx) or math.isnan(fy):
        return math.isnan(fx) and math.isnan(fy)
    return abs(fx - fy) <= CSV_RTOL * max(abs(fx), abs(fy))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_shipped_scenario_matches_reference(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    got = _content_lines(table.render())
    want = _content_lines((REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8"))
    assert got[0] == want[0], "column header"
    assert len(got) == len(want), "row count"
    columns = want[0].split(",")
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        for column, x, y in zip(columns, g.split(","), w.split(",")):
            same = x == y if column in LABELS else _close(x, y)
            assert same, f"row {row}, {column}: {x} vs reference {y}\n{g}\n{w}"
