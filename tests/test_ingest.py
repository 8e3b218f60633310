import csv
import gzip
import math
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordinal_seasonality import cli
from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.ingest import (
    ReturnSeries,
    calendar_weeks,
    load_csv,
    log_returns,
    split_subperiods,
    _load_bulk,
    _load_rows,
)

GOLDENS = Path(__file__).resolve().parent / "goldens"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def test_load_price_csv(tmp_path):
    path = _write(
        tmp_path,
        "prices.csv",
        "date,close\n"
        "2020-01-06,100\n2020-01-07,101\n2020-01-08,99\n"
        "2020-01-09,102\n2020-01-10,103\n2020-01-13,104\n",
    )
    series = load_csv(path, date_column="date", column="close")
    assert len(series) == 6
    assert series.dates is not None and series.dates[0] == date(2020, 1, 6)
    returns = log_returns(series)
    assert len(returns) == 5
    assert returns.dates[0] == date(2020, 1, 7)


def test_load_blank_value_names_row(tmp_path):
    path = _write(
        tmp_path, "gap.csv", "date,close\n2020-01-06,100\n2020-01-07,101\n2020-01-08,\n"
    )
    with pytest.raises(InvalidInputError, match="row 3"):
        load_csv(path, date_column="date", column="close")


def test_load_missing_column(tmp_path):
    path = _write(tmp_path, "cols.csv", "date,open\n2020-01-06,1\n")
    with pytest.raises(InvalidInputError, match="close"):
        load_csv(path, date_column="date", column="close")


def test_an_empty_column_name_is_a_name(tmp_path):
    path = _write(tmp_path, "blank.csv", "ret,\n0.1,2020-01-06\n0.2,2020-01-07\n")
    for load in (_load_bulk, _load_rows):
        values, dates = load(path, "ret", "")
        assert values.tolist() == [0.1, 0.2]
        assert [str(day) for day in dates] == ["2020-01-06", "2020-01-07"]


def test_load_non_monotone_dates(tmp_path):
    path = _write(
        tmp_path, "dates.csv", "date,ret\n2020-01-07,0.1\n2020-01-06,0.2\n"
    )
    with pytest.raises(InvalidInputError, match=r"^row 2: date 2020-01-06 is not after 2020-01-07$"):
        load_csv(path, date_column="date", column="ret")


@pytest.mark.parametrize("cell", ["20200107", "2020-W02-2"])
def test_dates_other_than_year_month_day_name_the_row(tmp_path, capsys, cell):
    # date.fromisoformat reads both forms from Python 3.11 on; 3.10 and the bulk parse do not
    path = _write(tmp_path, "dates.csv", f"date,ret\n2020-01-06,0.1\n{cell},0.2\n2020-01-08,0.3\n")
    assert cli.main(["analyze", "--input", str(path), "--column", "ret", "--date-column", "date"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: row 2: unparseable date {cell!r}\n"


@pytest.mark.parametrize("row", [1, 3])
def test_csv_errors_name_the_data_row(tmp_path, row):
    # csv refuses a field over its default field_size_limit of 131,072 characters
    lines = ["0.1", "0.2", "0.3"]
    lines[row - 1] = "x" * 200_000
    path = _write(tmp_path, "big.csv", "\n".join(["ret", *lines]) + "\n")
    with pytest.raises(InvalidInputError, match=f"^row {row}: field larger than field limit"):
        load_csv(path, column="ret")


_OVER_LIMIT = "x" * 200_000  # csv's default field_size_limit is 131,072
_UNREAD_OVERSIZED = {
    "unread-column": f"ret,note\n0.1,{_OVER_LIMIT}\n0.2,y\n",
    # a row that sends the bulk parse to the row loop for another reason
    "before-nan": f"ret,note\n0.1,{_OVER_LIMIT}\n0.2,y\nnan,z\n",
    # every line short, the quoted field long
    "quoted-lines": 'ret,note\n0.1,"' + ("x" * 99 + '""\r\n') * 2000 + '"\n0.2,y\n',
}


@pytest.mark.parametrize("case", list(_UNREAD_OVERSIZED))
def test_an_oversized_unread_field_fails_as_in_the_row_loop(tmp_path, case):
    path = _write(tmp_path, "big.csv", _UNREAD_OVERSIZED[case])
    assert _load_bulk(path, "ret", None) is None
    message = r"^row 1: field larger than field limit \(131072\)$"
    with pytest.raises(InvalidInputError, match=message):
        load_csv(path, column="ret")
    with pytest.raises(InvalidInputError, match=message):
        _load_rows(path, "ret", None)


def test_the_oversized_field_sign_follows_the_csv_limit(tmp_path):
    path = _write(tmp_path, "wide.csv", "ret,note\n0.1," + "x" * 1500 + "\n0.2,y\n")
    assert _load_bulk(path, "ret", None)[0].tolist() == [0.1, 0.2]
    default = csv.field_size_limit(1000)
    try:
        assert _load_bulk(path, "ret", None) is None
        with pytest.raises(InvalidInputError, match=r"^row 1: field larger than field limit \(1000\)$"):
            load_csv(path, column="ret")
    finally:
        csv.field_size_limit(default)


def test_quoted_line_breaks_in_short_fields_take_the_bulk_path(tmp_path):
    # 30,000 rows, about ten 64 KiB slices, each note quoted across a line break
    text = "ret,note\n" + "".join(f'{k / 8},"a\r\n""b"""\n' for k in range(30_000))
    path = _write(tmp_path, "notes.csv", text)
    values, _ = _load_bulk(path, "ret", None)
    assert values.tolist() == _load_rows(path, "ret", None)[0].tolist() == [k / 8 for k in range(30_000)]


def test_load_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "date,ret\n")
    with pytest.raises(InvalidInputError):
        load_csv(path, date_column="date", column="ret")


def test_load_gzip_and_delimiter(tmp_path):
    path = tmp_path / "data.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("ret,x\n0.01,a\n-0.02,b\n")
    series = load_csv(path, column="ret")
    assert np.allclose(series.values, [0.01, -0.02])


def test_load_rejects_nan_cell(tmp_path):
    path = _write(tmp_path, "nan.csv", "ret\n0.1\nnan\n")
    with pytest.raises(InvalidInputError, match="row 2"):
        load_csv(path, column="ret")


def test_load_order_break_names_row(tmp_path):
    path = _write(
        tmp_path, "order.csv", "date,ret\n2020-01-06,0.1\n2020-01-08,0.2\n2020-01-07,0.3\n"
    )
    with pytest.raises(InvalidInputError, match=r"^row 3: date 2020-01-07 is not after 2020-01-08$"):
        load_csv(path, date_column="date", column="ret")


BOM_TEXT = "\ufeffdate,close\n2020-01-06,100\n2020-01-07,101\n"


def test_load_skips_byte_order_mark(tmp_path):
    path = _write(tmp_path, "excel.csv", BOM_TEXT)
    assert path.read_bytes().startswith(b"\xef\xbb\xbfdate,")
    series = load_csv(path, date_column="date", column="close")
    assert series.values.tolist() == [100.0, 101.0]
    assert series.dates.tolist() == [date(2020, 1, 6), date(2020, 1, 7)]


def test_load_skips_byte_order_mark_gzip(tmp_path):
    path = tmp_path / "excel.csv.gz"
    path.write_bytes(gzip.compress(BOM_TEXT.encode("utf-8")))
    series = load_csv(path, date_column="date", column="close")
    assert series.values.tolist() == [100.0, 101.0]
    assert series.dates.tolist() == [date(2020, 1, 6), date(2020, 1, 7)]


def test_load_blank_lines_emit_no_warning(tmp_path):
    blank = _write(tmp_path, "blank.csv", "date,ret\n\n2020-01-06,0.1\n\n\n2020-01-07,0.2\n\n")
    only_blank = _write(tmp_path, "only-blank.csv", "date,ret\n\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = load_csv(blank, date_column="date", column="ret")
        with pytest.raises(InvalidInputError, match="no data rows"):
            load_csv(only_blank, date_column="date", column="ret")
    assert series.values.tolist() == [0.1, 0.2]


# Lines the bulk parser and the row loop must agree on, each put into a file
# of clean rows.  A date variant is a template of a year after every date
# before it; the rows after it move on past it.
_DATE_VARIANTS = [
    "{y}-01", "{y}0106", "{y}-02-30", "{y}-04-31", "{y}-13-01", "{y}-00-10", "{y}-01-00",
    "{y}-W02-1", " {y}-03-02 ", '"{y}-03-03"', "{y}-01-06x", "{y}-03-04\x00", "{y}-3-04",
    "{y}-1/-04", "{y}-0:-04", "{y}/03-04", "{y}-03/04", "{y}-02-29", "2021-02-29", "", "0000-01-01",
]
_VALUE_VARIANTS = [
    "nan", "1e999", "-inf", "1_0", "", " 1.5 ", '"2.5"', "-0", ".5", "1e-400", "0x10", "1,5",
]
_SPECIAL_LINES = (
    [("row", value) for value in _VALUE_VARIANTS]
    + [("bad-date", text) for text in _DATE_VARIANTS]
    + [(kind,) for kind in ("blank", "spaces", "comment", "empty-cells")]
    + [(kind,) for kind in ("short", "extra", "quoted-note", "repeat-date")]
)
_FIXED_LINES = {"blank": "", "spaces": "   ", "comment": "# note", "empty-cells": ",,"}
# header cells that spread the header over several lines
_NOTE_HEADERS = ["note", '"no\nte"', '"no\rte"', '"no\r\nte"']
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)


def _render_csv(lines, order, newline, note_header="note") -> str:
    """A CSV with columns ``order`` (a permutation of date, close, note).

    The note column's header cell is written ``note_header``.
    """
    out = [",".join(note_header if name == "note" else name for name in order)]
    day = date(2019, 12, 30)
    for line in lines:
        kind = line[0]
        if kind in _FIXED_LINES:
            out.append(_FIXED_LINES[kind])
            continue
        if kind != "repeat-date":
            day += timedelta(days=1)
        cells = {"date": day.isoformat(), "close": "1.25", "note": "n"}
        if kind == "row":
            cells["close"] = line[1]
        elif kind == "bad-date":
            cells["date"] = line[1].format(y=day.year + 1)
            day = date(day.year + 2, 1, 1)
        elif kind == "quoted-note":
            cells["note"] = '"a,b\n""c"""'
        row = [cells[name] for name in order]
        if kind == "short":
            row = row[:-1]
        elif kind == "extra":
            row.append("x")
        out.append(",".join(row))
    return newline.join(out) + newline


def _outcome(load):
    try:
        values, dates = load()
    except Exception as exc:  # the same error is part of the contract
        return type(exc), str(exc)
    return values.tobytes(), None if dates is None else np.asarray(dates, "datetime64[D]").tolist()


def _assert_bulk_matches_rows(path, date_column):
    def bulk():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = load_csv(path, date_column=date_column, column="close")
        return series.values, series.dates

    assert _outcome(bulk) == _outcome(lambda: _load_rows(path, "close", date_column))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    values=st.lists(_FLOATS, max_size=8),
    specials=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_SPECIAL_LINES)), max_size=2),
    order=st.permutations(["date", "close", "note"]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    note_header=st.sampled_from(_NOTE_HEADERS),
    dated=st.booleans(),
    compressed=st.booleans(),
)
def test_bulk_parse_matches_row_loop(
    tmp_path, values, specials, order, newline, note_header, dated, compressed
):
    lines = [("row", value) for value in values]
    for position, line in specials:
        lines.insert(position, line)
    data = _render_csv(lines, order, newline, note_header).encode("utf-8")
    path = tmp_path / ("input.csv.gz" if compressed else "input.csv")
    path.write_bytes(gzip.compress(data) if compressed else data)
    _assert_bulk_matches_rows(path, "date" if dated else None)


def test_bulk_parse_matches_row_loop_on_every_special_line(tmp_path):
    path = tmp_path / "input.csv"
    for line in _SPECIAL_LINES:
        for position in (0, 2):
            lines = [("row", "1.5")] * 4
            lines.insert(position, line)
            path.write_text(_render_csv(lines, ["date", "close", "note"], "\r\n"), encoding="utf-8")
            _assert_bulk_matches_rows(path, "date")


@pytest.mark.parametrize("dated", [True, False], ids=["dated", "undated"])
def test_header_with_quoted_newline_loads_as_row_loop(tmp_path, dated):
    # the header's second line looks like a data row; numpy skips both lines csv read
    text = 'date,close,"note\n2020-01-03,9.5,x"\n2020-01-06,1.5,"a\n"",b"\n2020-01-07,2.5,c\n2020-01-08,3.5,d\n'
    path = _write(tmp_path, "header.csv", text)
    date_column = "date" if dated else None
    assert _load_bulk(path, "close", date_column)[0].tolist() == [1.5, 2.5, 3.5]
    _assert_bulk_matches_rows(path, date_column)
    assert load_csv(path, date_column=date_column, column="close").values.tolist() == [1.5, 2.5, 3.5]


@pytest.mark.parametrize(
    ("note_header", "newline"),
    [(header, "\n") for header in _NOTE_HEADERS[1:]] + [(_NOTE_HEADERS[1], "\r")],
    ids=["quoted-lf", "quoted-cr", "quoted-crlf", "cr-line-endings"],
)
def test_headers_over_several_lines_take_the_bulk_path(tmp_path, note_header, newline):
    lines = [("row", "1.5"), ("row", "2.5"), ("row", "3.5")]
    path = tmp_path / "input.csv"
    text = _render_csv(lines, ["date", "close", "note"], newline, note_header)
    path.write_text(text, encoding="utf-8", newline="")
    assert _load_bulk(path, "close", "date")[0].tolist() == [1.5, 2.5, 3.5]
    _assert_bulk_matches_rows(path, "date")


@pytest.mark.parametrize(
    ("name", "value_column", "date_column"),
    [("prices.csv.gz", "close", "date"), ("dated.csv", "ret", "date"), ("dated.csv", "ret", None)],
)
def test_golden_inputs_take_the_bulk_path(name, value_column, date_column):
    path = GOLDENS / name
    values, dates = _load_bulk(path, value_column, date_column)
    expected_values, expected_dates = _load_rows(path, value_column, date_column)
    assert values.tobytes() == expected_values.tobytes()
    if date_column is None:
        assert dates is None
    else:
        assert dates.tolist() == expected_dates


@pytest.mark.parametrize("suffix", [".bz2", ".xz", ".lzma"])
def test_plain_text_with_a_numpy_compression_suffix_loads(tmp_path, suffix):
    path = _write(tmp_path, f"returns.csv{suffix}", "date,ret\n2020-01-06,0.1\n2020-01-07,-0.2\n")
    assert _load_bulk(path, "ret", "date") is None
    series = load_csv(path, date_column="date", column="ret")
    assert series.values.tolist() == [0.1, -0.2]
    assert series.dates.tolist() == [date(2020, 1, 6), date(2020, 1, 7)]


# ---------------------------------------------------------------------------
# log returns
# ---------------------------------------------------------------------------


def test_log_returns_values():
    series = ReturnSeries(values=np.array([100.0, 100.0]))
    assert log_returns(series).values.tolist() == [0.0]

    series = ReturnSeries(values=np.array([100.0, 110.0]))
    assert log_returns(series).values[0] == pytest.approx(0.09531017980432493, abs=1e-12)

    series = ReturnSeries(values=np.array([100.0, 90.0, 99.0]))
    out = log_returns(series).values
    assert out[0] == pytest.approx(-0.10536051565782628, abs=1e-12)
    assert out[1] == pytest.approx(0.09531017980432493, abs=1e-12)


def test_log_returns_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        log_returns(ReturnSeries(values=np.array([100.0, -1.0])))


def test_log_returns_reconstruction():
    rng = np.random.default_rng(3)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=500)))
    returns = log_returns(ReturnSeries(values=prices))
    rebuilt = prices[0] * np.exp(np.cumsum(returns.values))
    assert np.allclose(rebuilt, prices[1:], rtol=1e-12)


def test_price_file_loses_one_row_to_differencing(tmp_path):
    rng = np.random.default_rng(6)
    lines = ["close"] + [f"{p:.6f}" for p in 100 + np.cumsum(rng.normal(0, 0.5, 13_550))]
    path = _write(tmp_path, "big.csv", "\n".join(lines) + "\n")
    prices = load_csv(path, column="close")
    assert len(prices) == 13_550
    assert len(log_returns(prices)) == 13_549


# ---------------------------------------------------------------------------
# subperiods
# ---------------------------------------------------------------------------


def test_split_paper_shaped_subperiods():
    series = ReturnSeries(values=np.arange(13550, dtype=float))
    parts = split_subperiods(series, [3050, 3050, 3050, 3050, 1350])
    assert [len(p) for p in parts] == [3050, 3050, 3050, 3050, 1350]
    assert np.array_equal(np.concatenate([p.values for p in parts]), series.values)


def test_split_mismatch():
    series = ReturnSeries(values=np.arange(10, dtype=float))
    with pytest.raises(InvalidInputError):
        split_subperiods(series, [3, 3])


@pytest.mark.parametrize("lengths", [[], [0, 10], [-1, 11]], ids=["empty", "zero", "negative"])
def test_split_rejects_empty_or_non_positive_lengths(lengths):
    series = ReturnSeries(values=np.arange(10, dtype=float))
    with pytest.raises(InvalidInputError):
        split_subperiods(series, lengths)


def test_split_takes_only_whole_lengths():
    series = ReturnSeries(values=np.arange(5, dtype=float))
    with pytest.raises(InvalidInputError, match=r"^subperiod length must be a whole number, got 2\.5$"):
        split_subperiods(series, [2.5, 2.5])
    assert [len(p) for p in split_subperiods(series, [2.0, np.int64(3)])] == [2, 3]


def test_split_identity():
    series = ReturnSeries(values=np.arange(7, dtype=float), label="x")
    (only,) = split_subperiods(series, [7])
    assert np.array_equal(only.values, series.values)


def test_split_preserves_dates():
    start = date(2020, 1, 6)
    dates = tuple(start + timedelta(days=i) for i in range(10))
    series = ReturnSeries(values=np.arange(10, dtype=float), dates=dates)
    parts = split_subperiods(series, [4, 6])
    assert np.array_equal(parts[0].dates, np.array(dates[:4], dtype="datetime64[D]"))
    assert np.array_equal(parts[1].dates, np.array(dates[4:], dtype="datetime64[D]"))


# ---------------------------------------------------------------------------
# calendar weeks
# ---------------------------------------------------------------------------


def _weekday_dates(start: date, n: int) -> list[date]:
    out = []
    day = start
    while len(out) < n:
        if day.isoweekday() <= 5:
            out.append(day)
        day += timedelta(days=1)
    return out


def test_calendar_weeks_two_full_weeks():
    dates = _weekday_dates(date(2020, 1, 6), 10)  # Monday start
    series = ReturnSeries(values=np.arange(10, dtype=float), dates=tuple(dates))
    grouped = calendar_weeks(series)
    assert grouped.windows.shape == (2, 5)
    assert grouped.skipped_weeks == 0
    assert np.array_equal(grouped.windows[0], np.arange(5))


def test_calendar_weeks_holiday_skips_week():
    dates = _weekday_dates(date(2020, 1, 6), 10)
    dates.pop(2)  # Wednesday holiday in week one
    series = ReturnSeries(values=np.arange(9, dtype=float), dates=tuple(dates))
    grouped = calendar_weeks(series)
    assert grouped.windows.shape == (1, 5)
    assert grouped.skipped_weeks == 1


def test_calendar_weeks_rejects_weekends():
    dates = (date(2020, 1, 6), date(2020, 1, 11))  # Saturday
    series = ReturnSeries(values=np.array([0.1, 0.2]), dates=dates)
    with pytest.raises(InvalidInputError, match="^weekend date 2020-01-11$"):
        calendar_weeks(series)


def test_calendar_weeks_requires_dates():
    with pytest.raises(InvalidInputError):
        calendar_weeks(ReturnSeries(values=np.arange(10, dtype=float)))


def test_calendar_weeks_across_year_boundary():
    dates = _weekday_dates(date(2019, 12, 30), 5)  # ISO week 2020-W01 starts in 2019
    series = ReturnSeries(values=np.arange(5, dtype=float), dates=tuple(dates))
    grouped = calendar_weeks(series)
    assert grouped.windows.shape == (1, 5)
    assert grouped.skipped_weeks == 0


def test_calendar_weeks_iso_week_53():
    dates = _weekday_dates(date(2020, 12, 21), 15)  # 2020-W52, 2020-W53, 2021-W01
    assert dates[5].isocalendar()[:2] == (2020, 53)
    series = ReturnSeries(values=np.arange(15, dtype=float), dates=tuple(dates))
    grouped = calendar_weeks(series)
    assert grouped.skipped_weeks == 0
    assert np.array_equal(grouped.windows, np.arange(15, dtype=float).reshape(3, 5))


def test_calendar_weeks_partial_edges_each_skip_once():
    dates = _weekday_dates(date(2020, 1, 8), 10)  # Wed..Fri, a full week, Mon..Tue
    series = ReturnSeries(values=np.arange(10, dtype=float), dates=tuple(dates))
    grouped = calendar_weeks(series)
    assert grouped.skipped_weeks == 2
    assert np.array_equal(grouped.windows, [[3.0, 4.0, 5.0, 6.0, 7.0]])


def test_calendar_weeks_emits_monday_to_friday_only():
    dates = _weekday_dates(date(2021, 3, 1), 40)
    series = ReturnSeries(values=np.arange(40, dtype=float), dates=tuple(dates))
    grouped = calendar_weeks(series)
    for window in grouped.windows:
        idx = [int(v) for v in window]
        weekdays = [dates[i].isoweekday() for i in idx]
        assert weekdays == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# ReturnSeries invariants
# ---------------------------------------------------------------------------


def test_series_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        ReturnSeries(values=np.array([1.0, math.inf]))


def test_series_rejects_unsorted_dates():
    with pytest.raises(InvalidInputError, match="^dates not strictly increasing at 2020-01-06$"):
        ReturnSeries(
            values=np.array([1.0, 2.0]),
            dates=(date(2020, 1, 7), date(2020, 1, 6)),
        )
