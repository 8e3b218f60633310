"""Ordinal-pattern encoding and counting for daily return series.

A window of D consecutive returns is summarized by the permutation listing
the day offsets from the worst return of the window up to the best: with
D=5, a week in which Monday is the lowest return, then Friday, Tuesday,
Thursday, and Wednesday the highest encodes as (0, 4, 1, 3, 2).  Pattern
ids are the 1-based lexicographic rank of the digit string, so 01234 is
pattern 1 and 43210 is pattern D!.

Counting sorts nothing: each window's id follows from comparing every pair
of its days, one day against all earlier days at a time, over all windows
at once (:func:`count_windows`).  Every per-pattern computation reads one
cached table per order: the digits of all D! patterns in id order
(:func:`pattern_table`).  Pattern strings, families and the day-by-position
accumulation (:func:`position_counts`) are array operations on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, whole_number

MAX_ORDER = 10


def _validate_order(order: int) -> int:
    order = whole_number(order, "order")
    if order < 2 or order > MAX_ORDER:
        raise InvalidInputError(f"order must be in 2..{MAX_ORDER}, got {order}")
    return order


@lru_cache(maxsize=None)
def pattern_table(order: int) -> np.ndarray:
    """Digits of all D! patterns in id order: a read-only int8 array of shape (D!, D).

    Row ``k`` holds pattern id ``k + 1``.  In lexicographic order the
    patterns starting with digit ``f`` form the f-th block of (D-1)! rows,
    and each is ``f`` followed by a pattern of order D-1 whose digits from
    ``f`` up are shifted by one; so each order is built from the table of
    the order below.  Built once per order and shared by every caller.
    """
    order = _validate_order(order)
    rest = pattern_table(order - 1) if order > 2 else np.zeros((1, 1), dtype=np.int8)
    size = rest.shape[0]
    table = np.empty((order * size, order), dtype=np.int8)
    for first in range(order):
        block = table[first * size : (first + 1) * size]
        block[:, 0] = first
        np.add(rest, rest >= first, out=block[:, 1:])
    table.flags.writeable = False
    return table


def pattern_strings(order: int) -> np.ndarray:
    """Digit strings of all D! patterns in id order, as a ``U<D>`` array.

    ``"01234"`` is id 1 at order 5.  Ids are lexicographic ranks, so the
    strings are sorted.
    """
    table = pattern_table(order)
    # one ASCII digit per cell (D <= 10), each row viewed as one byte string
    chars = (table + ord("0")).astype(np.uint8)
    return chars.view(f"S{table.shape[1]}").ravel().astype(str)


def position_counts(counts, order: int) -> np.ndarray:
    """Day-by-position accumulation of per-pattern counts, a float (D, D) array.

    Cell ``(i, j)`` sums the counts of the patterns whose j-th digit is day
    ``i``.  Works on integer and mean (float) counts alike.  Only nonzero
    counts take part and each cell adds them in id order, so the sums equal
    a loop over the patterns bit for bit.
    """
    counts = np.asarray(counts, dtype=float)
    table = pattern_table(order)
    present = np.flatnonzero(counts)
    cells = table[present].astype(np.intp) * order + np.arange(order)
    sums = np.bincount(
        cells.ravel(), weights=np.repeat(counts[present], order), minlength=order * order
    )
    return sums.reshape(order, order)


class PatternFamily(Enum):
    """Named pattern subsets expressing one seasonal feature."""

    MONDAY_LARGEST = "monday-largest"
    MONDAY_WORST_FRIDAY_BEST = "monday-worst-friday-best"


@lru_cache(maxsize=None)
def family_index(kind: PatternFamily, order: int) -> np.ndarray:
    """Rows of the family's patterns in :func:`pattern_table`: a read-only, sorted int array.

    ``MONDAY_LARGEST`` selects patterns whose last digit is 0 (Monday holds
    the best return of the week), (D-1)! rows.  ``MONDAY_WORST_FRIDAY_BEST``
    selects first digit 0 and last digit D-1, (D-2)! rows: "Friday" is the
    window's last day, so at order 2 the families are the complements
    ``10`` and ``01``.  Indexing
    per-pattern counts with it gives the family's counts.  Built once per
    (kind, order) and shared by every caller.
    """
    order = _validate_order(order)
    table = pattern_table(order)
    if kind is PatternFamily.MONDAY_LARGEST:
        members = table[:, -1] == 0
    elif kind is PatternFamily.MONDAY_WORST_FRIDAY_BEST:
        members = (table[:, 0] == 0) & (table[:, -1] == order - 1)
    else:  # a kind that is not a PatternFamily
        raise InvalidInputError(f"unknown family {kind!r}")
    rows = np.flatnonzero(members)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def pattern_family(kind: PatternFamily, order: int) -> frozenset[int]:
    """Pattern ids in the family, for windows starting on Monday (day 0).

    The ids are :func:`family_index` + 1, built once per (kind, order).
    """
    return frozenset((family_index(kind, order) + 1).tolist())


def family_share(kind: PatternFamily, order: int) -> float:
    """The family's share of all D! patterns: its frequency when every pattern is equally likely.

    (D-1)!/D! = 1/D for ``MONDAY_LARGEST`` and (D-2)!/D! = 1/(D(D-1)) for
    ``MONDAY_WORST_FRIDAY_BEST``.  Either is one correctly rounded
    division, so it equals ``len(pattern_family(kind, order)) / D!`` bit
    for bit, without building the family.
    """
    order = _validate_order(order)
    if kind is PatternFamily.MONDAY_LARGEST:
        return 1.0 / order
    if kind is PatternFamily.MONDAY_WORST_FRIDAY_BEST:
        return 1.0 / (order * (order - 1))
    raise InvalidInputError(f"unknown family {kind!r}")


@dataclass
class PatternDistribution:
    """Absolute frequency of every pattern of a given order.

    ``counts[k]`` is the number of windows encoding to pattern id ``k + 1``,
    and ``windows`` is their sum.  ``ties_observed`` counts the windows
    that hold a tie, so it lies in ``0..windows``; ``dropped_points``
    counts the trailing values too short for a window, so it is >= 0.
    """

    order: int
    counts: np.ndarray
    windows: int = field(init=False)
    ties_observed: int = 0
    dropped_points: int = 0

    def __post_init__(self) -> None:
        self.order = _validate_order(self.order)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (math.factorial(self.order),):
            raise InvalidInputError(
                f"counts must have length {self.order}! = {math.factorial(self.order)}"
            )
        if (counts < 0).any():
            raise InvalidInputError("counts must be non-negative")
        self.counts = counts
        self.windows = int(counts.sum())
        if not 0 <= self.ties_observed <= self.windows:
            raise InvalidInputError(f"ties_observed {self.ties_observed} outside [0, {self.windows}]")
        if self.dropped_points < 0:
            raise InvalidInputError(f"dropped_points must be non-negative, got {self.dropped_points}")


def _pattern_codes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based pattern id and tie flag of each window of a finite (n, D) block.

    ``rows`` need not be contiguous.  Day ``a`` sits at position ``rank[a]``
    of its window's digit string, and the Lehmer digit there is the number
    of earlier days holding a strictly larger value, ``larger_before[a]``:
    the id is the sum over days of ``larger_before[a] * (D - 1 - rank[a])!``.
    Strict comparison is the tie rule, since a tied earlier day then ranks
    lower.
    """
    n, order = rows.shape
    days = np.ascontiguousarray(rows.T)  # day-major, so each comparison reads contiguous rows
    rank = np.zeros((order, n), dtype=np.int8)
    larger_before = np.zeros((order, n), dtype=np.int8)
    tied = np.zeros(n, dtype=bool)
    for b in range(1, order):
        above = days[:b] > days[b]
        larger_before[b] = above.sum(axis=0, dtype=np.int8)
        rank[:b] += above
        rank[b] += b - larger_before[b]
        tied |= (days[:b] == days[b]).any(axis=0)
    weight = np.array([math.factorial(order - 1 - r) for r in range(order)])
    return (larger_before * weight[rank]).sum(axis=0), tied


def _count_rows(rows: np.ndarray, dropped_points: int) -> PatternDistribution:
    """Distribution of the patterns of a finite (n, D) block of windows."""
    codes, tied = _pattern_codes(rows)
    return PatternDistribution(
        order=rows.shape[1],
        counts=np.bincount(codes, minlength=math.factorial(rows.shape[1])),
        ties_observed=int(np.count_nonzero(tied)),
        dropped_points=dropped_points,
    )


def count_windows(windows: np.ndarray) -> PatternDistribution:
    """Count patterns over an explicit (n, D) block of windows.

    Of equal values the earlier day ranks lower; the windows holding any
    tie are counted in ``ties_observed``.
    """
    rows = np.asarray(windows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise InvalidInputError("windows must be a non-empty (n, D) array")
    _validate_order(rows.shape[1])
    if not np.all(np.isfinite(rows)):
        raise InvalidInputError("windows contain non-finite values")
    return _count_rows(rows, 0)


def count_patterns(series, order: int = 5) -> PatternDistribution:
    """Count ordinal patterns over consecutive non-overlapping windows of ``order`` values.

    ``series`` may be a plain array or anything with a ``values`` attribute.
    Window ``k`` holds values ``k * order`` up to ``(k + 1) * order - 1``,
    one week of the partition; any trailing values too short for a full
    window are dropped and reported in ``dropped_points``.
    """
    values = np.asarray(getattr(series, "values", series), dtype=float)
    order = _validate_order(order)
    if values.ndim != 1:
        raise InvalidInputError("series must be one-dimensional")
    if values.size < order:
        raise InvalidInputError(f"series of length {values.size} is shorter than order {order}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("series contains non-finite values")
    windows = values.size // order
    return _count_rows(values[: windows * order].reshape(windows, order), values.size % order)
