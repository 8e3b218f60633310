"""Loading and preparing return series: CSV input, log returns, subperiod
splits, and calendar week partitioning."""

from __future__ import annotations

import csv
import gzip
import io
import math
import os
import warnings
import zlib
from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path

import numpy as np

from .errors import InvalidInputError


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
                raise InvalidInputError(f"dates not strictly increasing at {dates[breaks[0] + 1]}")
            self.dates = dates

    def __len__(self) -> int:
        return int(self.values.size)


def _open_binary(path: Path):
    """``path`` opened for reading bytes, gunzipped when its name ends in ``.gz``."""
    return gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb")


def _open_text(path: Path):
    return io.TextIOWrapper(_open_binary(path), encoding="utf-8-sig", newline="")


def _bulk_may_differ(path: Path) -> bool:
    """Whether the row loop may reject what numpy reads: a NUL byte, or a field over csv's size limit.

    Such a field covers a whole aligned slice of half the limit (64 KiB at
    most) in which every line break lies inside quotes.
    """
    span = max(1, min(1 << 16, (csv.field_size_limit() + 2) // 2))
    quoted = 0  # quote parity after the bytes read so far
    with _open_binary(path) as raw:
        for block in iter(partial(raw.read, 16 * span), b""):
            if b"\0" in block:
                return True
            if quoted or b'"' in block:  # blank out the bytes inside quotes
                data = np.frombuffer(block, np.uint8)
                parity = (np.cumsum(data == ord('"')) + quoted) & 1
                quoted = int(parity[-1])
                block = np.where(parity == 1, np.uint8(ord(" ")), data).tobytes()
            slices = range(0, len(block) - span + 1, span)
            if any(block.find(b"\n", s, s + span) < 0 and block.find(b"\r", s, s + span) < 0 for s in slices):
                return True
    return False


def _parse_date(text: str, row: int) -> date:
    """The date of a ``YYYY-MM-DD`` cell, the one form the bulk parse reads.

    The shape is checked first: from Python 3.11 on, ``date.fromisoformat``
    also reads ``20200106`` and week dates such as ``2020-W02-2``.
    """
    text = text.strip()
    try:
        if len(text) != 10 or text[4] != "-" or text[7] != "-":
            raise ValueError(text)
        return date.fromisoformat(text)
    except ValueError as exc:
        raise InvalidInputError(f"row {row}: unparseable date {text!r}") from exc


def _read_header(reader, path: Path, value_column: str, date_column: str | None):
    """The header fields and the value and date column indices."""
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    columns = {name: idx for idx, name in enumerate(header)}
    for needed in (date_column, value_column):
        if needed is not None and needed not in columns:
            raise InvalidInputError(f"{path}: missing column {needed!r} (header: {header})")
    return header, columns[value_column], columns[date_column] if date_column is not None else None


_ISO_WIDTH = 11  # one byte more than YYYY-MM-DD, so a longer cell shows


def _iso_dates(cells: np.ndarray) -> np.ndarray | None:
    """``datetime64[D]`` of (n, 11) uint8 cells that are exactly ``YYYY-MM-DD``.

    Returns None unless every cell is a date ``date.fromisoformat`` accepts
    in that form.  The bytes are checked for that shape first, since
    numpy's string cast also reads ``2020-01`` as 2020-01-01 and accepts
    year 0; the cast then rejects a month or day out of range.
    """
    if not ((cells[:, 4] == ord("-")) & (cells[:, 7] == ord("-")) & (cells[:, 10] == 0)).all():
        return None
    digits = cells[:, [0, 1, 2, 3, 5, 6, 8, 9]] - np.uint8(ord("0"))  # below "0" wraps around
    if (digits > 9).any() or (digits[:, :4] == 0).all(axis=1).any():  # or year 0000
        return None
    try:
        return cells[:, :10].view("S10")[:, 0].astype("datetime64[D]")
    except ValueError:
        return None


# numpy opens a path with these suffixes through a decompressor; load_csv reads them as text
_NUMPY_DECOMPRESSED = (".bz2", ".xz", ".lzma")


def _load_bulk(path: Path, value_column: str, date_column: str | None):
    """Values and dates parsed in bulk, or None where the row loop might differ.

    The header is read with :mod:`csv`; numpy then reads the data rows from
    the path itself, which it parses in C chunks rather than line by line.
    Any parse or decompression error, short row, non-finite value, date not
    exactly ``YYYY-MM-DD`` or order break gives None, as do the bytes of
    :func:`_bulk_may_differ` and a suffix numpy would decompress.
    """
    if path.suffix in _NUMPY_DECOMPRESSED:
        return None
    try:
        if _bulk_may_differ(path):  # fixed-width date bytes cannot show a trailing NUL
            return None
        with _open_text(path) as handle:
            reader = csv.reader(handle)
            _, vcol, dcol = _read_header(reader, path, value_column, date_column)
        fields = [("value", "f8")] + ([("date", f"S{_ISO_WIDTH}")] if dcol is not None else [])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns about a file with no data rows
            table = np.loadtxt(
                os.fspath(path),
                dtype=fields,
                delimiter=",",
                usecols=(vcol,) if dcol is None else (vcol, dcol),
                comments=None,
                quotechar='"',
                skiprows=reader.line_num,  # lines, not records: a quoted header field may hold newlines
                encoding="utf-8-sig",
                ndmin=1,
            )
    except (ValueError, OSError, EOFError, csv.Error, zlib.error):
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


def _load_rows(path: Path, value_column: str, date_column: str | None):
    """The reference row loop: values and dates, or an error naming the row.

    A :mod:`csv` error names the data row or the header, and a broken gzip
    stream names the file.
    """
    values: list[float] = []
    dates: list[date] = []
    header, row_no = None, 0
    try:
        with _open_text(path) as handle:
            reader = csv.reader(handle)
            header, vcol, dcol = _read_header(reader, path, value_column, date_column)
            for row_no, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) <= vcol or (dcol is not None and len(row) <= dcol):
                    raise InvalidInputError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
                cell = row[vcol].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise InvalidInputError(f"row {row_no}: unparseable value {cell!r}") from None
                if not math.isfinite(value):
                    raise InvalidInputError(f"row {row_no}: non-finite value {cell!r}")
                values.append(value)
                if dcol is not None:
                    day = _parse_date(row[dcol], row_no)
                    if dates and day <= dates[-1]:
                        raise InvalidInputError(f"row {row_no}: date {day} is not after {dates[-1]}")
                    dates.append(day)
    except csv.Error as exc:
        where = f"row {row_no + 1}" if header is not None else f"{path}: header"
        raise InvalidInputError(f"{where}: {exc}") from None
    except (EOFError, zlib.error) as exc:
        raise InvalidInputError(f"{path}: {exc}") from None

    if not values:
        raise InvalidInputError(f"{path}: no data rows")
    return np.asarray(values, dtype=float), (dates if date_column is not None else None)


def load_csv(path, column: str, date_column: str | None = None) -> ReturnSeries:
    """Load the value column ``column`` (and optionally a date column) from a CSV file.

    The values are taken as they are: for prices, :func:`log_returns` gives
    the returns.  A ``.gz`` suffix selects transparent gzip decompression,
    and a UTF-8 byte order mark is skipped.  Dates, written ``YYYY-MM-DD``,
    become a ``datetime64[D]`` array; the label is the file name.

    The columns are parsed in bulk.  When that fails, or a value is not
    finite, a date is not exactly ``YYYY-MM-DD``, the dates do not strictly
    increase, the file holds a NUL character or a field that may exceed
    :mod:`csv`'s size limit, or the name ends in ``.bz2``, ``.xz`` or
    ``.lzma``, the file is read row by row.  That gives the same
    result, or raises :class:`~ordinal_seasonality.errors.InvalidInputError`
    naming the 1-based data row (or the header, for a :mod:`csv` error
    there); a broken gzip stream raises it naming the file.
    """
    path = Path(path)
    loaded = _load_bulk(path, column, date_column)
    values, dates = loaded or _load_rows(path, column, date_column)
    return ReturnSeries(values=values, dates=dates, label=path.name)


def log_returns(prices: ReturnSeries) -> ReturnSeries:
    """Log returns r_t = ln(P_t / P_{t-1}); dates shift to the later day.

    A price that is not positive raises, naming the first such price by
    its 1-based position, its value and, in a dated series, its date.
    """
    if len(prices) < 2:
        raise InvalidInputError("need at least two prices")
    bad = np.flatnonzero(prices.values <= 0)
    if bad.size:
        i = int(bad[0])
        on = f" on {prices.dates[i]}" if prices.dates is not None else ""
        price = float(prices.values[i])
        raise InvalidInputError(f"prices must be strictly positive: price {i + 1} is {price!r}{on}")
    values = np.diff(np.log(prices.values))
    dates = prices.dates[1:] if prices.dates is not None else None
    return ReturnSeries(values=values, dates=dates, label=prices.label)


def split_subperiods(series: ReturnSeries, lengths) -> list[ReturnSeries]:
    """Slice the series into consecutive subperiods of the given lengths, which must cover it."""
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise InvalidInputError("need at least one subperiod length")
    if min(lengths) < 1:
        raise InvalidInputError("subperiod lengths must be positive")
    if sum(lengths) != len(series):
        raise InvalidInputError(
            f"subperiod lengths sum to {sum(lengths)}, series has {len(series)} points"
        )
    out = []
    start = 0
    for i, n in enumerate(lengths, start=1):
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
        raise InvalidInputError(f"weekend date {series.dates[weekend[0]]}")

    monday = days - weekday
    starts = np.flatnonzero(np.diff(monday, prepend=monday[0] - 1))
    lengths = np.diff(starts, append=days.size)
    full = starts[lengths == 5]
    windows = series.values[full[:, None] + np.arange(5)]
    return WeekWindows(windows=windows, skipped_weeks=int(starts.size - full.size))
