import csv
import dataclasses
import gzip
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordinal_seasonality
import ordinal_seasonality.cli as cli
from ordinal_seasonality.fgn import BinomialAggregate, ChiAggregate, RejectionCounts, SimulationReport
from ordinal_seasonality.fixtures import nyse_fixture_distribution, series_from_distribution
from ordinal_seasonality.patterns import PatternFamily, pattern_family, pattern_strings
from oracles import dumps_by_recursion, flat_csv_by_recursion

# the child imports the package this test imported, installed or not
PACKAGE_ROOT = str(Path(ordinal_seasonality.__file__).resolve().parent.parent)
GOLDENS = Path(__file__).resolve().parent / "goldens"


def run_cli(*args, log_level=None, **kwargs):
    """Run the CLI in a child process; ``log_level`` sets ORDINAL_SEASONALITY_LOG."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("ORDINAL_SEASONALITY_LOG", None)
    if log_level is not None:
        env["ORDINAL_SEASONALITY_LOG"] = log_level
    return subprocess.run(
        [sys.executable, "-m", "ordinal_seasonality", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


@pytest.fixture(scope="module")
def returns_csv(tmp_path_factory):
    rng = np.random.default_rng(8)
    path = tmp_path_factory.mktemp("data") / "returns.csv"
    lines = ["date,ret"]
    day = np.datetime64("2015-01-05")
    written = 0
    while written < 600:
        weekday = (day.astype("datetime64[D]").view("int64") + 3) % 7
        if weekday < 5:
            lines.append(f"{day},{rng.standard_normal() * 0.01:.8f}")
            written += 1
        day += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    series = series_from_distribution(nyse_fixture_distribution())
    path = tmp_path_factory.mktemp("fixture") / "nyse.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ret\n")
        for value in series.values:
            handle.write(f"{float(value)!r}\n")
    return path


# ---------------------------------------------------------------------------
# patterns command
# ---------------------------------------------------------------------------


def test_patterns_default_csv_row_counts():
    out = run_cli("patterns", "--d", "3")
    assert out.returncode == 0
    assert len(out.stdout.strip().splitlines()) == 6

    out = run_cli("patterns", "--d", "5")
    assert len(out.stdout.strip().splitlines()) == 120


def test_patterns_family_filters():
    out = run_cli("patterns", "--d", "5", "--family", "monday-worst-friday-best")
    ids = [int(line.split(",")[0]) for line in out.stdout.strip().splitlines()]
    assert ids == [1, 3, 7, 9, 13, 15]

    out = run_cli("patterns", "--d", "5", "--family", "monday-largest")
    assert len(out.stdout.strip().splitlines()) == 24


def test_patterns_family_at_order_two(capsys):
    assert cli.main(["patterns", "--d", "2", "--family", "monday-largest"]) == 0
    assert capsys.readouterr().out == "2,10\n"


@pytest.mark.parametrize(
    ("order", "family"), [(8, None), (7, "monday-largest")], ids=["d8-40-blocks", "d7-family"]
)
def test_patterns_csv_is_one_line_per_pattern(order, family, capsys):
    argv = ["patterns", "--d", str(order)] + (["--family", family] if family else [])
    assert cli.main(argv) == 0
    ids = sorted(pattern_family(PatternFamily(family), order)) if family else range(1, math.factorial(order) + 1)
    strings = pattern_strings(order)
    assert capsys.readouterr().out == "".join(f"{k},{strings[k - 1]}\n" for k in ids)


def test_patterns_csv_holds_no_per_row_objects(tmp_path):
    # the listing table (1.6 MB), its pattern strings (1.3 MB) and the text
    # (0.6 MB) twice; a tuple and a line string per row take 10 MB more
    argv = ["patterns", "--d", "8", "--output", str(tmp_path / "patterns.csv")]
    assert cli.main(argv) == 0  # builds the order-8 pattern table once
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak:,} bytes"


def test_patterns_json_format():
    out = run_cli("patterns", "--d", "3", "--format", "json")
    doc = json.loads(out.stdout)
    assert [p["id"] for p in doc["patterns"]] == [1, 2, 3, 4, 5, 6]


def test_an_empty_output_path_is_a_path(capsys):
    # "" names no file that can be opened, so the report goes nowhere, stdout included
    assert cli.main(["patterns", "--d", "3", "--output", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*\n", captured.err)


# ---------------------------------------------------------------------------
# analyze command
# ---------------------------------------------------------------------------


def test_analyze_json(returns_csv):
    out = run_cli(
        "analyze", "--input", str(returns_csv), "--column", "ret", "--weeks", "block"
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    section = doc["sections"][0]
    assert section["weeks"] == 120
    assert len(section["pattern_counts"]) == 120
    assert len(section["position_matrix"]["rows"]) == 5
    assert "h4_monday_largest" in section["tests"]


@pytest.mark.parametrize("order", ["2", "3"])
def test_analyze_runs_every_test_at_low_orders(order, tmp_path):
    out = tmp_path / "analyze.json"
    argv = ["analyze", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret",
            "--d", order, "--subperiods", "1000,1000", "--output", str(out)]
    assert cli.main(argv) == 0
    sections = json.loads(out.read_text(encoding="utf-8"))["sections"]
    assert len(sections) == 2
    for section in sections:
        tests = section["tests"]
        assert list(tests) == ["h1_pattern_uniformity", "h4_monday_largest", "h5_monday_worst_friday_best"]
        assert all(type(outcome["p_value"]) is float for outcome in tests.values())


def test_analyze_calendar_mode(returns_csv):
    out = run_cli(
        "analyze",
        "--input", str(returns_csv),
        "--column", "ret",
        "--date-column", "date",
        "--weeks", "calendar",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    section = doc["sections"][0]
    assert section["skipped_weeks"] == 0
    assert section["weeks"] == 120


@pytest.mark.parametrize(
    ("flags", "message"),
    [(["--stride", "1"], "unrecognized arguments: --stride 1"),
     (["--d", "6"], "calendar week partitioning is defined for --d 5")],
)
def test_analyze_calendar_mode_rejects_block_options(capsys, flags, message):
    argv = ["analyze", "--input", str(GOLDENS / "dated.csv"), "--column", "ret",
            "--date-column", "date", "--weeks", "calendar", *flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_analyze_subperiod_sections(fixture_csv):
    out = run_cli(
        "analyze",
        "--input", str(fixture_csv),
        "--column", "ret",
        "--subperiods", "3050,3050,3050,3050,1350",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["sections"]) == 5
    assert [s["points"] for s in doc["sections"]] == [3050, 3050, 3050, 3050, 1350]


def test_analyze_csv_format_carries_same_numbers(fixture_csv):
    json_out = run_cli("analyze", "--input", str(fixture_csv), "--column", "ret")
    csv_out = run_cli(
        "analyze", "--input", str(fixture_csv), "--column", "ret", "--format", "csv"
    )
    assert csv_out.returncode == 0
    doc = json.loads(json_out.stdout)
    q_mo = doc["sections"][0]["position_matrix"]["rows"][0]["statistic"]
    lines = dict(
        line.split(",", 1) for line in csv_out.stdout.strip().splitlines()[1:]
    )
    assert float(lines["sections[0].position_matrix.rows[0].statistic"]) == q_mo
    assert lines["sections[0].position_matrix.rows[0].counts[0]"] == "637"


def _price_file(tmp_path, days):
    path = tmp_path / "prices.csv"
    rows = [f"{day},{100 + i}" for i, day in enumerate(days)]
    path.write_text("\n".join(["date,close", *rows]) + "\n", encoding="utf-8")
    return path


def _weekdays(first: str, count: int) -> list[str]:
    start = np.datetime64(first)
    return [str(start + i) for i in range(count)]


@pytest.mark.parametrize(
    ("days", "subperiods", "section", "weekend"),
    [
        # data row 5 is a Saturday
        (["2020-01-06", "2020-01-07", "2020-01-08", "2020-01-09", "2020-01-11", "2020-01-13"],
         [], "prices.csv", "2020-01-11"),
        # a full first subperiod, then a Saturday in the second
        (["2020-01-03", *_weekdays("2020-01-06", 5), *_weekdays("2020-01-13", 5),
          "2020-01-18", "2020-01-20"],
         ["--subperiods", "5,7"], "prices.csv[2]", "2020-01-18"),
    ],
    ids=["whole-series", "second-subperiod"],
)
def test_analyze_weekend_error_names_the_date(tmp_path, capsys, days, subperiods, section, weekend):
    path = _price_file(tmp_path, days)
    argv = ["analyze", "--input", str(path), "--price-column", "close", "--date-column", "date",
            "--weeks", "calendar", *subperiods]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {section}: weekend date {weekend}\n" in err
    assert "row" not in err


@pytest.mark.parametrize(
    ("path", "flags", "message"),
    [
        ("returns2k.csv.gz", ["--subperiods", "1900,100", "--hurst"],
         "returns2k.csv.gz[2]: series of length 100 is too short: need at least 216 points for 4 window sizes"),
        ("returns2k.csv.gz", ["--subperiods", "1997,3"],
         "returns2k.csv.gz[2]: series of length 3 is shorter than order 5"),
        ("dated.csv", ["--date-column", "date", "--weeks", "calendar", "--subperiods", "252,4"],
         "dated.csv[2]: no complete Monday-Friday weeks"),
    ],
    ids=["hurst", "order", "calendar"],
)
def test_analyze_section_errors_name_the_section(capsys, path, flags, message):
    argv = ["analyze", "--input", str(GOLDENS / path), "--column", "ret", *flags]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("order", ["9", "10"])
@pytest.mark.parametrize("command", ["analyze", "shuffle", "patterns"])
def test_orders_above_8_exit_2_with_one_error_line(command, order, returns_csv, capsys):
    argv, label = [command, "--d", order], ""
    if command != "patterns":
        argv += ["--input", str(returns_csv), "--column", "ret"]
    if command == "shuffle":
        argv += ["--reps", "4", "--seed", "1"]
    if command == "analyze":  # the whole-period section is named after its file
        label = f"{returns_csv.name}: "
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {label}order must be in 2..8, got {order}\n")


def test_analyze_order_error_names_the_row(tmp_path, capsys):
    path = _price_file(tmp_path, ["2020-01-06", "2020-01-08", "2020-01-07", "2020-01-09"])
    argv = ["analyze", "--input", str(path), "--price-column", "close", "--date-column", "date"]
    assert cli.main(argv) == 2
    assert "error: row 3: date 2020-01-07 is not after 2020-01-08\n" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path):
    out = run_cli("analyze", "--input", str(tmp_path / "absent.csv"), "--column", "r")
    assert out.returncode == 2
    assert "error" in out.stderr.lower()


def test_analyze_needs_exactly_one_value_column(returns_csv, capsys):
    # the pair is one required argparse group, so either slip is a usage error
    for flags, complaint in [
        ([], "one of the arguments --column --price-column is required"),
        (["--column", "ret", "--price-column", "ret"], "argument --price-column: not allowed with argument --column"),
    ]:
        assert cli.main(["analyze", "--input", str(returns_csv), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ordinal-seasonality analyze ")
        assert captured.err.endswith(f"\nordinal-seasonality analyze: error: {complaint}\n")


def test_an_empty_column_name_that_the_header_lacks_exits_2(tmp_path, capsys):
    path = tmp_path / "named.csv"
    path.write_text("ret\n" + "0.01\n" * 300, encoding="utf-8")
    assert cli.main(["hurst", "--input", str(path), "--column", ""]) == 2
    assert capsys.readouterr().err == f"error: {path}: missing column '' (header: ['ret'])\n"


def test_an_empty_price_column_name_reports_prices(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(3).standard_normal(400) * 0.01))
    path.write_text("x,\n" + "".join(f"{i},{p!r}\n" for i, p in enumerate(prices.tolist())), encoding="utf-8")
    assert cli.main(["analyze", "--input", str(path), "--price-column", ""]) == 0
    meta = json.loads(capsys.readouterr().out)["input"]
    assert (meta["points"], meta["column_kind"]) == (399, "price")


def test_analyze_hurst_flag(fixture_csv):
    out = run_cli("analyze", "--input", str(fixture_csv), "--column", "ret", "--hurst", "dfa")
    doc = json.loads(out.stdout)
    assert "hurst" in doc["sections"][0]
    assert doc["sections"][0]["hurst"]["method"] == "dfa"


def test_analyze_hurst_flag_alone_is_rs(capsys):
    argv = ["analyze", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret",
            "--subperiods", "1000,1000"]
    reports = []
    for flags in (["--hurst"], ["--hurst", "rs"]):
        assert cli.main([*argv, *flags]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert [section["hurst"]["method"] for section in json.loads(reports[0])["sections"]] == ["rs", "rs"]


def test_analyze_has_no_method_option(capsys):
    # the estimator is --hurst's value, so no --method can be set without it
    argv = ["analyze", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret", "--method", "dfa"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --method dfa" in captured.err


def test_a_non_positive_price_is_named(tmp_path, capsys):
    path = tmp_path / "prices.csv"
    days = _weekdays("2020-01-06", 300)
    prices = [100.0 + i for i in range(300)]
    prices[2] = 0.0
    path.write_text("date,close\n" + "".join(f"{d},{p}\n" for d, p in zip(days, prices)), encoding="utf-8")
    message = "error: prices must be strictly positive: price 3 is 0.0"
    assert cli.main(["hurst", "--input", str(path), "--price-column", "close"]) == 2
    assert capsys.readouterr().err == f"{message}\n"
    assert cli.main(["hurst", "--input", str(path), "--price-column", "close", "--date-column", "date"]) == 2
    assert capsys.readouterr().err == f"{message} on 2020-01-08\n"


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------


def test_simulate_deterministic_bytes():
    args = ("simulate", "--hurst", "0.5", "--length", "1000", "--reps", "6", "--seed", "9")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_simulate_requires_seed():
    out = run_cli("simulate", "--hurst", "0.5", "--length", "1000", "--reps", "4")
    assert out.returncode == 2


def test_simulate_rejects_bad_hurst():
    out = run_cli(
        "simulate", "--hurst", "1.5", "--length", "1000", "--reps", "4", "--seed", "1"
    )
    assert out.returncode == 2


def test_simulate_row_shape():
    out = run_cli(
        "simulate", "--hurst", "0.4,0.6", "--length", "1500", "--reps", "5",
        "--seed", "3", "--jobs", "2",
    )
    doc = json.loads(out.stdout)
    assert [row["hurst"] for row in doc["rows"]] == [0.4, 0.6]
    row = doc["rows"][0]
    assert row["weeks"] == 300
    assert set(row["h1"]["rejections"]) == {"at_10", "at_05", "at_01"}
    assert len(row["h2"]) == 5


def _field_names(record_type) -> list[str]:
    return [field.name for field in dataclasses.fields(record_type)]


def test_report_keys_are_the_record_fields(fixture_csv, tmp_path):
    simulate, hurst = tmp_path / "simulate.json", tmp_path / "hurst.json"
    argv = ["simulate", "--hurst", "0.5", "--length", "500", "--reps", "2", "--seed", "1"]
    assert cli.main([*argv, "--output", str(simulate)]) == 0
    assert cli.main(["hurst", "--input", str(fixture_csv), "--column", "ret", "--output", str(hurst)]) == 0
    (row,) = json.loads(simulate.read_text(encoding="utf-8"))["rows"]
    assert list(row) == _field_names(SimulationReport)
    chi, binomial = [row["h1"], *row["h2"], *row["h3"]], [row["h4"], row["h5"]]
    assert all(list(agg) == _field_names(ChiAggregate) for agg in chi)
    assert all(list(agg) == _field_names(BinomialAggregate) for agg in binomial)
    assert all(list(agg["rejections"]) == _field_names(RejectionCounts) for agg in chi + binomial)
    estimate = json.loads(hurst.read_text(encoding="utf-8"))["estimate"]
    assert list(estimate) == _field_names(ordinal_seasonality.HurstEstimate)


# ---------------------------------------------------------------------------
# shuffle command
# ---------------------------------------------------------------------------


def test_shuffle_reports_aggregate_and_rows(returns_csv):
    out = run_cli(
        "shuffle", "--input", str(returns_csv), "--column", "ret",
        "--reps", "8", "--seed", "5",
    )
    assert out.returncode == 0
    assert out.stderr == ""
    doc = json.loads(out.stdout)
    assert doc["config"]["replications"] == 8
    assert len(doc["per_replication"]) == 8
    assert 0 <= doc["aggregate"]["h1"]["rejections"]["at_05"] <= 8
    # same seed -> identical bytes
    again = run_cli(
        "shuffle", "--input", str(returns_csv), "--column", "ret",
        "--reps", "8", "--seed", "5",
    )
    assert again.stdout == out.stdout


def test_shuffle_requires_seed(returns_csv):
    out = run_cli("shuffle", "--input", str(returns_csv), "--column", "ret", "--reps", "4")
    assert out.returncode == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_shuffle_of_a_too_short_series_names_its_length_and_order(tmp_path, jobs):
    # under --jobs 2 the error is raised in a pool worker
    path = tmp_path / "short.csv"
    path.write_text("ret\n0.01\n-0.02\n0.03\n", encoding="utf-8")
    out = run_cli("shuffle", "--input", str(path), "--column", "ret", "--reps", "4", "--seed", "1", "--jobs", jobs)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: series of length 3 is shorter than order 5\n")


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--reps", "0"], "replications must be >= 1"),
        (["--reps", "4", "--jobs", "0"], "jobs must be >= 1"),
        (["--reps", "4", "--jobs", "-3"], "jobs must be >= 1"),
        (["--reps", "4", "--seed", "-1"], "seed must be >= 0"),
        (["--reps", "4", "--seed", "-1", "--jobs", "2"], "seed must be >= 0"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "shuffle"])
def test_replication_engine_rejects_bad_counts(command, flags, message, returns_csv, capsys):
    # the library's check, one error line: under shuffle --jobs 2 the seed is refused in the pool's workers
    if command == "simulate":
        argv = ["simulate", "--hurst", "0.5", "--length", "1000", "--seed", "1", *flags]
    else:
        argv = ["shuffle", "--input", str(returns_csv), "--column", "ret", "--seed", "1", *flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {re.escape(message)}(, got -?\d+)?\n", captured.err)


# the command line only parses; the library checks each value, and says what is wrong in one line
@pytest.mark.parametrize(
    ("argv", "line"),
    [
        (["simulate", "--hurst", "0.3,1.5", "--length", "100", "--reps", "2", "--seed", "1"],
         "hurst must lie in (0, 1), got 1.5"),
        (["analyze", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret", "--subperiods", "0,2000"],
         "subperiod lengths must be positive"),
    ],
    ids=["hurst", "subperiods"],
)
def test_library_value_rules_exit_2_with_their_own_line(argv, line, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "run_ensemble", lambda *args, **kwargs: runs.append(args))
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert runs == []  # simulate checks every H before its first ensemble runs


# a simulate week is 5 returns: below that no window fits
@pytest.mark.parametrize(
    ("length", "code", "message"),
    [
        ("1", 2, "length must be >= 2"),
        ("4", 2, "length too short for a single week window"),
        ("5", 0, None),
    ],
)
def test_simulate_lengths_around_one_week(length, code, message, capsys):
    argv = ["simulate", "--hurst", "0.5", "--length", length, "--reps", "2", "--seed", "1"]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.err == ""
        assert [row["weeks"] for row in json.loads(captured.out)["rows"]] == [1]
    else:
        assert message in captured.err and "Traceback" not in captured.err


# each test is decided at 10, 5 and 1%; no option sets another level
@pytest.mark.parametrize("command", ["analyze", "simulate", "shuffle"])
def test_alpha_is_not_an_option(command, returns_csv, capsys):
    if command == "simulate":
        argv = ["simulate", "--hurst", "0.5", "--length", "1000", "--reps", "2", "--seed", "1"]
    else:
        argv = [command, "--input", str(returns_csv), "--column", "ret"]
        argv += ["--reps", "2", "--seed", "1"] if command == "shuffle" else []
    assert cli.main([*argv, "--alpha", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --alpha 0.1" in captured.err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_reports_decide_at_the_fixed_levels_only(command, returns_csv, tmp_path):
    if command == "simulate":
        argv = ["simulate", "--hurst", "0.3,0.7", "--length", "1000", "--reps", "3", "--seed", "1"]
    else:
        argv = ["analyze", "--input", str(returns_csv), "--column", "ret", "--subperiods", "300,300"]
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert '"reject_05"' in text
    assert '"reject_at_alpha"' not in text and '"alpha"' not in text


def test_shuffle_rate_at_alpha_is_the_5_percent_rejection_share(tmp_path):
    out = tmp_path / "shuffle.json"
    argv = ["shuffle", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret",
            "--reps", "40", "--seed", "3", "--output", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["alpha"] == 0.05
    for key in ("h1", "h4", "h5"):
        aggregate = doc["aggregate"][key]
        assert aggregate["rate_at_alpha"] == aggregate["rejections"]["at_05"] / 40
        assert [r[f"{key}_reject"] for r in doc["per_replication"]] == [
            r[f"{key}_p"] < 0.05 for r in doc["per_replication"]
        ]
    assert sum(doc["aggregate"][key]["rejections"]["at_05"] for key in ("h1", "h4", "h5")) > 0


def test_shuffle_tests_h4_and_h5_at_order_two(tmp_path):
    out = tmp_path / "shuffle.json"
    argv = ["shuffle", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret",
            "--d", "2", "--reps", "3", "--seed", "1", "--output", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert type(doc["aggregate"]["h4"]) is dict and type(doc["aggregate"]["h5"]) is dict
    for row in doc["per_replication"]:
        for key in ("h4", "h5"):
            assert type(row[f"{key}_p"]) is float and type(row[f"{key}_reject"]) is bool
        # at order 2 the families are the complements 10 and 01: the same test
        assert row["h4_p"] == row["h5_p"]


# ---------------------------------------------------------------------------
# hurst command
# ---------------------------------------------------------------------------


def test_hurst_command(fixture_csv):
    out = run_cli("hurst", "--input", str(fixture_csv), "--column", "ret")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert 0.0 < doc["estimate"]["h"] < 1.0
    assert doc["estimate"]["method"] == "rs"


def test_hurst_runs_do_not_import_numpy_ma(fixture_csv, tmp_path):
    # numpy.ma costs 12-22 ms to import; np.unique is one function that loads it
    code = (
        "import json, sys\n"
        "from ordinal_seasonality.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    common = ["--input", str(fixture_csv), "--column", "ret", "--output", str(tmp_path / "report.json")]
    runs = [["analyze", "--hurst", *common], ["hurst", "--method", "dfa", *common]]
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("method", ["rs", "dfa"])
def test_hurst_on_constant_column_exits_2(method, tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("ret\n" + "0.01\n" * 300, encoding="utf-8")
    assert cli.main(["hurst", "--input", str(path), "--column", "ret", "--method", method]) == 2
    message = "constant series has no Hurst exponent: its range and fluctuation are zero"
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# diagnostic log: decisions the report records, logged once at INFO
# ---------------------------------------------------------------------------


def test_analyze_logs_low_expected_frequency_only_at_info():
    args = ("analyze", "--input", str(GOLDENS / "returns2k.csv.gz"), "--column", "ret", "--d", "6")
    quiet = run_cli(*args)
    assert quiet.returncode == 0
    assert quiet.stderr == ""

    verbose = run_cli(*args, log_level="INFO")
    assert verbose.returncode == 0
    assert verbose.stdout == quiet.stdout
    assert verbose.stderr.splitlines() == [
        "INFO:ordinal_seasonality.cli:returns2k.csv.gz: "
        "1 of 13 chi-squared tests expect fewer than 5 counts per cell"
    ]


def test_analyze_logs_tied_windows(tmp_path):
    path = tmp_path / "ties.csv"
    week = "1.0\n1.0\n2.0\n3.0\n4.0\n"  # Monday and Tuesday tie
    path.write_text("ret\n" + week * 10, encoding="utf-8")
    quiet = run_cli("analyze", "--input", str(path), "--column", "ret")
    assert quiet.returncode == 0 and quiet.stderr == ""
    assert json.loads(quiet.stdout)["sections"][0]["ties"]["windows_with_ties"] == 10

    verbose = run_cli("analyze", "--input", str(path), "--column", "ret", log_level="INFO")
    assert verbose.returncode == 0
    assert (
        "ties.csv: 10 of 10 windows hold tied values; the earlier day ranks lower"
        in verbose.stderr
    )


def test_simulate_logs_low_mean_expected_frequency():
    args = ("simulate", "--hurst", "0.5", "--length", "1000", "--reps", "2", "--seed", "4")
    quiet = run_cli(*args)
    assert quiet.returncode == 0 and quiet.stderr == ""
    frequency = json.loads(quiet.stdout)["rows"][0]["h1"]["averaged"]["mean_expected_frequency"]
    assert frequency == pytest.approx(200 / 120)

    verbose = run_cli(*args, log_level="INFO")
    assert verbose.stderr.splitlines() == [
        "INFO:ordinal_seasonality.cli:H=0.5: mean expected pattern frequency 1.67 is below 5"
    ]


def test_unknown_log_level_falls_back_to_warning():
    # BASIC_FORMAT is a logging attribute but no level
    out = run_cli("patterns", "--d", "3", log_level="basic_format")
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 6


# ---------------------------------------------------------------------------
# serialization invariants
# ---------------------------------------------------------------------------


def test_json_round_trip(returns_csv):
    out = run_cli("analyze", "--input", str(returns_csv), "--column", "ret")
    doc = json.loads(out.stdout)
    assert json.loads(cli.dumps(doc)) == doc


_TEXT = st.text() | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\r\n\t", "é", "\u2028", "\ud800", "😀", "", "%s%%"])
_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e16, 1e-5, 0.1, 1 / 3])
_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | _NUMBERS | _TEXT
# table fields: the values of each kind, and names holding "%", quotes and non-ASCII text
_FIELD_VALUES = {
    "i8": st.integers(-(2**63), 2**63 - 1),
    "U": _TEXT | st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\rlf", "naïve €"]),
}
_FIELD_NAMES = st.text(min_size=1, max_size=4) | st.sampled_from(["%", "%s%%", "a%d", '"', 'x"y', "é", "😀", "id"])


@st.composite
def _tables(draw) -> np.ndarray:
    """A 1-D structured array of 0-4 rows and 1-3 fields."""
    names = draw(st.lists(_FIELD_NAMES, min_size=1, max_size=3, unique=True))
    kinds = [draw(st.sampled_from(sorted(_FIELD_VALUES))) for _ in names]
    rows = draw(st.lists(st.tuples(*(_FIELD_VALUES[kind] for kind in kinds)), max_size=4))
    dtype = [
        (name, f"U{max([len(row[j]) for row in rows], default=0) + 1}" if kind == "U" else kind)
        for j, (name, kind) in enumerate(zip(names, kinds))
    ]
    return np.array(rows, dtype=dtype)


_DOCUMENTS = st.recursive(
    _LEAVES | _tables(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT | st.integers(-3, 3), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_dumps_matches_per_node_oracle(doc):
    assert cli.dumps(doc) == dumps_by_recursion(doc)


def test_dumps_matches_oracle_on_repeated_keys_at_several_depths():
    rows = [{"id": k, "pattern": "01234", "count": k % 3, "nested": {"id": -k, "x": [{}, []]}} for k in range(4)]
    doc = {"id": 0, "rows": rows, "more": {"rows": rows, "id": {"id": [1, [2, []]]}}}
    assert cli.dumps(doc) == dumps_by_recursion(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_flat_csv_matches_per_node_oracle(doc):
    assert cli.to_flat_csv(doc) == flat_csv_by_recursion(doc)


_UNSUPPORTED = pytest.mark.parametrize(
    "value",
    [
        set(),
        (1, "a"),
        np.bool_(True),
        np.int64(1),
        np.float64(0.5),
        object(),
        np.arange(3),
        np.array([(1, "a")], dtype=[("id", int), ("x", object)]),
        np.array([(1, True)], dtype=[("id", int), ("flag", "?")]),
        np.array([(1, 0.5)], dtype=[("id", int), ("x", "f8")]),
        np.array([], dtype=[("x", "f8")]),  # no row to write, yet a field no table may hold
    ],
    ids=["set", "tuple", "np-bool", "np-int64", "np-float64", "object", "plain-array", "object-table",
         "bool-table", "float-table", "empty-float-table"],
)
_WHERE = pytest.mark.parametrize("where", ["top", "dict", "list"])


def _holding(value, where):
    return {"top": value, "dict": {"a": {"b": value}}, "list": [1, [value]]}[where]


@_UNSUPPORTED
@_WHERE
def test_dumps_rejects_unsupported_values(value, where):
    with pytest.raises(TypeError, match=re.escape(f"cannot serialize {type(value)!r}")):
        cli.dumps(_holding(value, where))


@_UNSUPPORTED
@_WHERE
def test_flat_csv_rejects_unsupported_values(value, where):
    with pytest.raises(TypeError, match=re.escape(f"cannot serialize {type(value)!r}")):
        cli.to_flat_csv(_holding(value, where))


def _pattern_rows(form: str):
    """The 40,320 pattern rows of an order-8 analyze report, as dicts or as a table."""
    table = cli._pattern_listing(8, np.arange(math.factorial(8)) % 3)
    return table if form == "table" else [dict(zip(table.dtype.names, row)) for row in table.tolist()]


def test_tables_of_several_blocks_write_as_their_rows():
    table = _pattern_rows("table")[: 2 * cli._CHUNK_FRAGMENTS + 5]
    rows = _pattern_rows("dicts")[: len(table)]
    # a string holding a quote, a backslash and non-ASCII text beside int fields of two widths at their
    # extremes, under a field name holding "%", a comma, a quote and non-ASCII text
    name = 'na%d,"mé"'
    fields = [(name, "U8"), ("n", "i8"), ("small", "i1")]
    kinds = np.array([('a"b\\é', -(2**63), -128), ("plain", 2**63 - 1, 127)], dtype=fields)
    kind_rows = [
        {name: 'a"b\\é', "n": -(2**63), "small": -128},
        {name: "plain", "n": 2**63 - 1, "small": 127},
    ]
    # a key holding "%", a comma and quotes puts them in every CSV path below it
    doc = {"sections": [{"counts %d, \"all\"": table, "empty": table[:0], "after": 1}], "tail": table[-3:]}
    expanded = {"sections": [{"counts %d, \"all\"": rows, "empty": [], "after": 1}], "tail": rows[-3:]}
    doc["kinds"], expanded["kinds"] = kinds, kind_rows
    text = cli.dumps(doc)
    # compared as lines: pytest reports the first differing line, not a minutes-long diff of the text
    assert text.splitlines(keepends=True) == dumps_by_recursion(doc).splitlines(keepends=True)
    assert json.loads(text) == json.loads(json.dumps(expanded))
    assert cli.to_flat_csv(doc) == cli.to_flat_csv(expanded) == flat_csv_by_recursion(expanded)


def test_order8_report_writes_one_line_per_pattern(tmp_path):
    returns = np.random.default_rng(123).standard_t(4, size=13_550) * 0.01
    data = tmp_path / "returns.csv"
    data.write_text("ret\n" + "".join(f"{value!r}\n" for value in returns.tolist()), encoding="utf-8")
    report = tmp_path / "report.json"
    assert cli.main(["analyze", "--input", str(data), "--column", "ret", "--d", "8", "--output", str(report)]) == 0
    text = report.read_text(encoding="utf-8")
    (section,) = json.loads(text)["sections"]
    row_lines = [line for line in text.splitlines() if line.lstrip().startswith('{"id": ')]
    assert len(row_lines) == math.factorial(8)
    assert [json.loads(line.rstrip(",")) for line in row_lines] == section["pattern_counts"]
    # 3.95 MB with five lines per row
    assert len(text.encode("utf-8")) < 2_500_000


@pytest.mark.parametrize(
    ("write", "form"),
    [(cli.dumps, "dicts"), (cli.to_flat_csv, "dicts"), (cli.dumps, "table"), (cli.to_flat_csv, "table")],
    ids=["json", "csv", "json-table", "csv-table"],
)
def test_writing_a_report_holds_under_three_times_its_text(write, form):
    rows = _pattern_rows(form)
    doc = {"command": "analyze", "sections": [{"order": 8, "pattern_counts": rows, "fraction": 0.25}]}
    tracemalloc.start()
    try:
        text = write(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), f"peak {peak:,} bytes for {len(text):,} characters"


def test_shuffle_memory_does_not_grow_with_the_pattern_table(tmp_path):
    # 200 replications at order 8: holding each replication's 40,320 counts
    # would take 200 * 40,320 * 8 bytes = 64.5 MB; only the p-values are kept
    argv = ["shuffle", "--input", str(GOLDENS / "nyse.csv.gz"), "--column", "ret", "--d", "8",
            "--reps", "200", "--seed", "11", "--output", str(tmp_path / "shuffle.json")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak:,} bytes"


def test_flat_csv_round_trips_line_breaks_and_quotes():
    doc = {"label": "a\rb", "path": "c\nd", "note": 'x,"y"', "mixed": "e\r\nf", "plain": "z"}
    rows = list(csv.reader(io.StringIO(cli.to_flat_csv(doc), newline="")))
    assert rows == [["key", "value"], *([key, value] for key, value in doc.items())]


_FLOAT_TOKEN = re.compile(r"-?\d+\.\d+(?:[eE][+-]?\d+)?")


def test_every_float_has_five_decimals(returns_csv):
    out = run_cli("analyze", "--input", str(returns_csv), "--column", "ret")
    for token in _FLOAT_TOKEN.findall(out.stdout):
        if "e" in token or "E" in token:
            continue
        assert len(token.split(".")[1]) >= 5, token


def test_format_float_padding():
    assert cli.format_float(0.5) == "0.50000"
    assert cli.format_float(22.78967) == "22.78967"
    assert float(cli.format_float(1 / 3)) == 1 / 3


def test_exit_codes_for_error_classes(monkeypatch, returns_csv, capsys):
    # input problems exit 2
    assert cli.main(["analyze", "--input", "/nonexistent.csv", "--column", "ret"]) == 2
    capsys.readouterr()

    # unexpected internal failures exit 1
    def boom(path, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "load_csv", boom)
    assert cli.main(["analyze", "--input", str(returns_csv), "--column", "ret"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("error", [ordinal_seasonality.InvalidInputError])
def test_package_errors_exit_2(error, monkeypatch, returns_csv, capsys):
    def boom(path, **kwargs):
        raise error("synthetic input problem")

    monkeypatch.setattr(cli, "load_csv", boom)
    assert cli.main(["analyze", "--input", str(returns_csv), "--column", "ret"]) == 2
    assert capsys.readouterr().err == "error: synthetic input problem\n"


_FIELD_OVER_CSV_LIMIT = "x" * 200_000  # csv's default field_size_limit is 131,072


@pytest.mark.parametrize(
    "case",
    [
        "input-directory", "plain-text-gz", "invalid-utf8", "output-directory",
        "truncated-gz", "corrupt-gz", "oversized-field", "oversized-header",
        "oversized-unread-field", "oversized-field-before-nan",
    ],
)
def test_file_errors_exit_2_without_traceback(case, tmp_path, returns_csv, capsys):
    source, output = str(returns_csv), []
    compressed = gzip.compress(returns_csv.read_bytes())
    files = {
        "plain-text-gz": ("returns.csv.gz", b"ret\n0.01\n0.02\n"),
        "invalid-utf8": ("latin1.csv", b"ret\n0.01\n\xff\xfe0.02\n"),
        "truncated-gz": ("truncated.csv.gz", compressed[: len(compressed) // 2]),
        # a deflate block of the reserved type 3 after a valid gzip header
        "corrupt-gz": ("corrupt.csv.gz", compressed[:10] + b"\xff" * 16),
        "oversized-field": ("field.csv", f"ret\n0.1\n{_FIELD_OVER_CSV_LIMIT}\n0.2\n".encode()),
        "oversized-header": ("header.csv", f"ret,{_FIELD_OVER_CSV_LIMIT}\n0.1\n0.2\n".encode()),
        "oversized-unread-field": ("note.csv", f"ret,note\n0.1,{_FIELD_OVER_CSV_LIMIT}\n0.2,y\n".encode()),
        "oversized-field-before-nan": (
            "nan.csv", f"ret,note\n0.1,{_FIELD_OVER_CSV_LIMIT}\n0.2,y\nnan,z\n".encode()
        ),
    }
    if case in files:
        name, data = files[case]
        source = str(tmp_path / name)
        (tmp_path / name).write_bytes(data)
    elif case == "input-directory":
        source = str(tmp_path)
    else:
        output = ["--output", str(tmp_path)]
    assert cli.main(["hurst", "--input", source, "--column", "ret", *output]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    named = {
        "truncated-gz": "truncated.csv.gz: ",
        "corrupt-gz": "corrupt.csv.gz: ",
        "oversized-field": "error: row 2: field larger than field limit",
        "oversized-header": "header.csv: header: field larger than field limit",
        "oversized-unread-field": "error: row 1: field larger than field limit",
        "oversized-field-before-nan": "error: row 1: field larger than field limit",
    }
    assert named.get(case, "") in err
