"""Golden reports: every CLI run below must reproduce its committed bytes.

The inputs under ``tests/goldens`` are fixed data files:

- ``nyse.csv.gz``: the bundled NYSE fixture as a return column,
  ``series_from_distribution(nyse_fixture_distribution())``, one ``repr``
  float per row (13,550 rows).
- ``returns2k.csv.gz``: 2,000 draws of ``0.01 * N(0, 1)`` from
  ``numpy.random.default_rng(2000)``, six decimals.
- ``dated.csv``: weekday returns for 2015 from ``default_rng(21)``, with
  four holidays that leave incomplete calendar weeks.
- ``prices.csv.gz``: 301 weekday closing prices (``date,close,volume``,
  Windows line endings) from 2019-07-04 to 2020-08-31, from
  ``default_rng(31)``, with holidays on 2019-12-25 and 2020-01-01; both
  edge weeks are partial.
- ``ties.csv.gz``: 2,000 integer returns in -2..2 from
  ``numpy.random.default_rng(7).integers(-2, 3, size=2000)``, so most
  windows hold tied values.

A report that differs fails the test, which prints the command that
regenerates the golden.  Regenerate only for an intended change of
output, and say why where the change is recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from ordinal_seasonality import cli
from ordinal_seasonality.fixtures import nyse_fixture_distribution, series_from_distribution
from ordinal_seasonality.ingest import load_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = "tests/goldens"

NYSE = f"{GOLDENS}/nyse.csv.gz"
RETURNS = f"{GOLDENS}/returns2k.csv.gz"
DATED = f"{GOLDENS}/dated.csv"
PRICES = f"{GOLDENS}/prices.csv.gz"
TIES = f"{GOLDENS}/ties.csv.gz"

# golden file -> CLI arguments; report paths are relative to the repository root
CASES = {
    "analyze-nyse.json": [
        "analyze", "--input", NYSE, "--column", "ret", "--weeks", "block",
        "--subperiods", "6775,6775", "--hurst",
    ],
    "analyze-calendar.json": [
        "analyze", "--input", DATED, "--column", "ret", "--date-column", "date",
        "--weeks", "calendar",
    ],
    "analyze-prices.json": [
        "analyze", "--input", PRICES, "--price-column", "close", "--date-column", "date",
        "--weeks", "calendar", "--subperiods", "150,150",
    ],
    "analyze-d6.json": ["analyze", "--input", RETURNS, "--column", "ret", "--d", "6"],
    # tie-heavy data: most windows hold tied values
    "analyze-ties.json": ["analyze", "--input", TIES, "--column", "ret", "--d", "4"],
    "simulate.json": [
        "simulate", "--hurst", "0.3,0.7", "--length", "1000", "--reps", "6", "--seed", "11",
    ],
    "simulate.csv": [
        "simulate", "--hurst", "0.3,0.7", "--length", "1000", "--reps", "6", "--seed", "11",
        "--format", "csv",
    ],
    # near-zero embedding eigenvalues (H near 0 and 1) at an odd length
    "simulate-extreme.json": [
        "simulate", "--hurst", "0.01,0.5,0.999", "--length", "4097", "--reps", "4", "--seed", "2",
    ],
    "shuffle.json": [
        "shuffle", "--input", RETURNS, "--column", "ret", "--reps", "8", "--seed", "5",
    ],
    "shuffle-ties.json": [
        "shuffle", "--input", TIES, "--column", "ret", "--d", "3", "--reps", "6", "--seed", "5",
    ],
    # flat CSV: null, true/false, ints, floats, strings and nested lists
    "analyze-d6.csv": [
        "analyze", "--input", RETURNS, "--column", "ret", "--d", "6", "--format", "csv",
    ],
    "shuffle-ties-d2.csv": [
        "shuffle", "--input", TIES, "--column", "ret", "--d", "2", "--reps", "4", "--seed", "5",
        "--format", "csv",
    ],
    "hurst-rs.json": ["hurst", "--input", NYSE, "--column", "ret"],
    "hurst-dfa.json": ["hurst", "--input", NYSE, "--column", "ret", "--method", "dfa"],
    "patterns-d4.csv": ["patterns", "--d", "4"],
    "patterns-family.csv": ["patterns", "--d", "5", "--family", "monday-worst-friday-best"],
    "patterns-d4.json": ["patterns", "--d", "4", "--format", "json"],
    "patterns-monday-largest.json": [
        "patterns", "--d", "5", "--family", "monday-largest", "--format", "json",
    ],
}

RUNS = [(name, []) for name in CASES] + [
    (name, ["--jobs", jobs])
    for name in ("simulate.json", "simulate.csv", "simulate-extreme.json", "shuffle.json", "shuffle-ties.json")
    for jobs in ("1", "2")
]


def regenerate_command(name: str) -> str:
    return " ".join(
        ["PYTHONPATH=src", "python", "-m", "ordinal_seasonality", *CASES[name], "--output", f"{GOLDENS}/{name}"]
    )


@pytest.mark.parametrize(("name", "extra"), RUNS, ids=[f"{n}{''.join(e)}" for n, e in RUNS])
def test_report_matches_golden(name, extra, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / name
    assert cli.main([*CASES[name], *extra, "--output", str(out)]) == 0
    expected = (ROOT / GOLDENS / name).read_bytes()
    assert out.read_bytes() == expected, (
        f"{name} differs from its golden; if the change is intended, regenerate with\n"
        f"  {regenerate_command(name)}"
    )


def _outcome_dicts(node):
    """Every dict below ``node`` that holds a test outcome: a ``p_value`` with its ``stars``."""
    if isinstance(node, dict):
        if "p_value" in node and "stars" in node:
            yield node
        for value in node.values():
            yield from _outcome_dicts(value)
    elif isinstance(node, list):
        for item in node:
            yield from _outcome_dicts(item)


def test_golden_decisions_are_the_thresholds_of_their_p_values():
    # analyze rows, columns and tests, and simulate's averaged outcomes
    found = set()
    for name in CASES:
        if name.endswith(".json"):
            doc = json.loads((ROOT / GOLDENS / name).read_text(encoding="utf-8"))
            for outcome in _outcome_dicts(doc):
                p = outcome["p_value"]
                rejects = [p < 0.10, p < 0.05, p < 0.01]
                assert [outcome["reject_10"], outcome["reject_05"], outcome["reject_01"]] == rejects, (name, outcome)
                assert outcome["stars"] == "*" * sum(rejects), (name, outcome)
                found.add(name)
    assert sorted(found) == sorted(n for n in CASES if n.startswith(("analyze", "simulate")) and n.endswith(".json"))


def test_nyse_input_is_the_bundled_fixture():
    # the input behind analyze-nyse.json and hurst-dfa.json, value for value
    loaded = load_csv(ROOT / NYSE, column="ret").values
    assert np.array_equal(loaded, series_from_distribution(nyse_fixture_distribution()).values)
