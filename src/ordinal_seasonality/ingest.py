"""Loading and preparing return series: CSV input, log returns, subperiod
splits, and calendar week partitioning."""

from __future__ import annotations

import csv
import gzip
import io
import math
import os
import warnings
from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, OrderError, RejectedRowError, SchemaError


@dataclass
class ReturnSeries:
    """Ordered daily values (returns or prices), optionally date-stamped.

    ``dates`` accepts any sequence of :class:`datetime.date` and is stored
    as a ``datetime64[D]`` array, which must be strictly increasing.
    """

    values: np.ndarray
    dates: np.ndarray | None = None
    label: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise InvalidInputError("series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("series contains non-finite values")
        self.values = values
        if self.dates is not None:
            dates = np.asarray(self.dates, dtype="datetime64[D]")
            if dates.shape != values.shape:
                raise InvalidInputError("dates and values must have the same length")
            breaks = np.flatnonzero(~(dates[1:] > dates[:-1]))
            if breaks.size:
                raise OrderError(f"dates not strictly increasing at {dates[breaks[0] + 1]}")
            self.dates = dates

    def __len__(self) -> int:
        return int(self.values.size)


def _open_text(path: Path):
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8-sig")
    return open(path, "r", encoding="utf-8-sig", newline="")


def _has_nul(path: Path) -> bool:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as raw:
        return any(b"\0" in block for block in iter(partial(raw.read, 1 << 20), b""))


def _parse_date(text: str, row: int) -> date:
    text = text.strip()
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"row {row}: unparseable date {text!r}") from exc


def _read_header(reader, path: Path, value_column: str, date_column: str | None):
    """The header fields and the value and date column indices."""
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    columns = {name: idx for idx, name in enumerate(header)}
    for needed in filter(None, (date_column, value_column)):
        if needed not in columns:
            raise SchemaError(f"{path}: missing column {needed!r} (header: {header})")
    return header, columns[value_column], columns[date_column] if date_column else None


_ISO_WIDTH = 11  # one byte more than YYYY-MM-DD, so a longer cell shows


def _iso_dates(cells: np.ndarray) -> np.ndarray | None:
    """``datetime64[D]`` of (n, 11) uint8 cells that are exactly ``YYYY-MM-DD``.

    Returns None unless every cell is a date ``date.fromisoformat`` accepts
    in that form.  numpy's own string cast is not used: it reads ``2020-01``
    as 2020-01-01.
    """
    if not ((cells[:, 4] == ord("-")) & (cells[:, 7] == ord("-")) & (cells[:, 10] == 0)).all():
        return None
    digit = {k: cells[:, k] - np.uint8(ord("0")) for k in (0, 1, 2, 3, 5, 6, 8, 9)}
    if any((d > 9).any() for d in digit.values()):  # below "0" wraps around
        return None
    year = ((digit[0].astype(np.int16) * 10 + digit[1]) * 10 + digit[2]) * 10 + digit[3]
    month = digit[5] * 10 + digit[6]
    day = digit[8] * 10 + digit[9]
    if (year < 1).any() or ((month < 1) | (month > 12)).any() or (day < 1).any():
        return None
    months = ((year.astype(np.int32) - 1970) * 12 + (month - 1)).astype("datetime64[M]")
    first = months.astype("datetime64[D]")
    if (day > ((months + 1).astype("datetime64[D]") - first).astype(np.int64)).any():
        return None
    return first + (day - 1)


# numpy opens a path with these suffixes through a decompressor; load_csv reads them as text
_NUMPY_DECOMPRESSED = (".bz2", ".xz", ".lzma")


def _load_bulk(path: Path, value_column: str, date_column: str | None, delimiter: str):
    """Values and dates parsed in bulk, or None where the row loop might differ.

    The header is read with :mod:`csv`; numpy then reads the data rows from
    the path itself, which it parses in C chunks rather than line by line.
    Any parse error, short row, non-finite value, date not exactly
    ``YYYY-MM-DD``, order break, NUL byte or header over more than one line
    gives None, as does a suffix numpy would decompress.
    """
    if path.suffix in _NUMPY_DECOMPRESSED:
        return None
    try:
        if _has_nul(path):  # fixed-width date bytes cannot show a trailing NUL
            return None
        with _open_text(path) as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            _, vcol, dcol = _read_header(reader, path, value_column, date_column)
            if reader.line_num != 1:  # skiprows counts lines, not records
                return None
        fields = [("value", "f8")] + ([("date", f"S{_ISO_WIDTH}")] if dcol is not None else [])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns about a file with no data rows
            table = np.loadtxt(
                os.fspath(path),
                dtype=fields,
                delimiter=delimiter,
                usecols=(vcol,) if dcol is None else (vcol, dcol),
                comments=None,
                quotechar='"',
                skiprows=1,
                encoding="utf-8-sig",
                ndmin=1,
            )
    except (ValueError, OSError, EOFError):
        return None
    values = table["value"].copy()
    if values.size == 0 or not np.isfinite(values).all():
        return None
    if dcol is None:
        return values, None
    cells = table.view(np.uint8).reshape(table.size, table.itemsize)[:, -_ISO_WIDTH:]
    dates = _iso_dates(cells)
    if dates is None or not (dates[1:] > dates[:-1]).all():
        return None
    return values, dates


def _load_rows(path: Path, value_column: str, date_column: str | None, delimiter: str = ","):
    """The reference row loop: values and dates, or an error naming the row."""
    values: list[float] = []
    dates: list[date] = []
    with _open_text(path) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header, vcol, dcol = _read_header(reader, path, value_column, date_column)
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= vcol or (dcol is not None and len(row) <= dcol):
                raise SchemaError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
            cell = row[vcol].strip()
            try:
                value = float(cell)
            except ValueError:
                raise SchemaError(f"row {row_no}: unparseable value {cell!r}") from None
            if not math.isfinite(value):
                raise SchemaError(f"row {row_no}: non-finite value {cell!r}")
            values.append(value)
            if dcol is not None:
                day = _parse_date(row[dcol], row_no)
                if dates and day <= dates[-1]:
                    raise OrderError(f"row {row_no}: date {day} is not after {dates[-1]}")
                dates.append(day)

    if not values:
        raise InvalidInputError(f"{path}: no data rows")
    return np.asarray(values, dtype=float), (dates if date_column else None)


def load_csv(
    path,
    date_column: str | None = None,
    price_column: str | None = None,
    return_column: str | None = None,
    delimiter: str = ",",
) -> ReturnSeries:
    """Load a value column (and optionally a date column) from a CSV file.

    Exactly one of ``price_column`` and ``return_column`` selects the value
    column; the loader does not convert prices to returns, use
    :func:`log_returns` for that.  A ``.gz`` suffix selects transparent
    gzip decompression, and a UTF-8 byte order mark is skipped.  Dates
    become a ``datetime64[D]`` array; the label is the file name.

    The columns are parsed in bulk.  When that fails, or a value is not
    finite, a date is not exactly ``YYYY-MM-DD``, the dates do not strictly
    increase, the file holds a NUL character, the header spans more than
    one line or the name ends in ``.bz2``, ``.xz`` or ``.lzma``, the file
    is read row by row, which gives the same result or raises
    :class:`SchemaError` or :class:`OrderError` naming the 1-based data row.
    """
    if (price_column is None) == (return_column is None):
        raise SchemaError("exactly one of price_column and return_column is required")
    value_column = price_column if price_column is not None else return_column

    path = Path(path)
    loaded = _load_bulk(path, value_column, date_column, delimiter)
    values, dates = loaded or _load_rows(path, value_column, date_column, delimiter)
    return ReturnSeries(values=values, dates=dates, label=path.name)


def log_returns(prices: ReturnSeries) -> ReturnSeries:
    """Log returns r_t = ln(P_t / P_{t-1}); dates shift to the later day."""
    if len(prices) < 2:
        raise InvalidInputError("need at least two prices")
    if (prices.values <= 0).any():
        raise InvalidInputError("prices must be strictly positive")
    values = np.diff(np.log(prices.values))
    dates = prices.dates[1:] if prices.dates is not None else None
    return ReturnSeries(values=values, dates=dates, label=prices.label)


@dataclass(frozen=True)
class SubperiodSpec:
    """Contiguous, exhaustive partition of a series into consecutive slices."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lengths:
            raise InvalidInputError("subperiod spec needs at least one length")
        if any(int(n) < 1 for n in self.lengths):
            raise InvalidInputError("subperiod lengths must be positive")
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))

    @property
    def total(self) -> int:
        return sum(self.lengths)


def split_subperiods(series: ReturnSeries, spec: SubperiodSpec) -> list[ReturnSeries]:
    """Slice the series into the spec's consecutive subperiods."""
    if spec.total != len(series):
        raise InvalidInputError(
            f"subperiod lengths sum to {spec.total}, series has {len(series)} points"
        )
    out = []
    start = 0
    for i, n in enumerate(spec.lengths, start=1):
        stop = start + n
        dates = series.dates[start:stop] if series.dates is not None else None
        base = series.label or "series"
        out.append(ReturnSeries(values=series.values[start:stop], dates=dates, label=f"{base}[{i}]"))
        start = stop
    return out


@dataclass
class WeekWindows:
    """Monday-to-Friday windows extracted from a dated series."""

    windows: np.ndarray  # (n, 5)
    skipped_weeks: int


def calendar_weeks(series: ReturnSeries) -> WeekWindows:
    """Group a dated weekday series into complete Monday..Friday ISO weeks.

    Works on the ``datetime64[D]`` day numbers: a week is a run of dates
    with the same Monday.  Dates strictly increase and weekends are
    rejected, so a run of five days is exactly Monday..Friday; any other
    run (holidays, series edges) is skipped and counted.  Weekend dates
    are structural errors: daily equity series are weekday-only.
    """
    if series.dates is None:
        raise InvalidInputError("calendar week partitioning requires dates")
    days = series.dates.astype(np.int64)
    weekday = (days + 3) % 7  # Monday = 0; 1970-01-01 was a Thursday
    weekend = np.flatnonzero(weekday > 4)
    if weekend.size:
        raise RejectedRowError(f"weekend date {series.dates[weekend[0]]}")

    monday = days - weekday
    starts = np.flatnonzero(np.diff(monday, prepend=monday[0] - 1))
    lengths = np.diff(starts, append=days.size)
    full = starts[lengths == 5]
    windows = series.values[full[:, None] + np.arange(5)]
    return WeekWindows(windows=windows, skipped_weeks=int(starts.size - full.size))
