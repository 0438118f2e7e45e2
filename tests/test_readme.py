"""The README's column contract names the fields each CSV is written from."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from qcslab import cli, harness

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "name, record",
    [
        ("Results", harness.TrialResult),
        ("Aggregates", harness.AggregateRow),
        ("Regime map", harness.RegimePoint),
        ("Bound-curve", cli.BoundCurveRow),
    ],
)
def test_readme_lists_each_csv_column(name, record):
    # "<name> CSV: `col, col, ...`", the list free to wrap across lines.
    pattern = name.replace(" ", r"\s+") + r"\s+CSV:\s+`([^`]*)`"
    (listed,) = re.findall(pattern, README.read_text(encoding="utf-8"))
    assert [c.strip() for c in listed.split(",")] == [f.name for f in fields(record)]
