"""Ordinal-pattern encoding and counting for daily return series.

A window of D consecutive returns is summarized by the permutation listing
the day offsets from the worst return of the window up to the best: with
D=5, a week in which Monday is the lowest return, then Friday, Tuesday,
Thursday, and Wednesday the highest encodes as (0, 4, 1, 3, 2).  Pattern
ids are the 1-based lexicographic rank of the digit string, so 01234 is
pattern 1 and 43210 is pattern D!.

Every per-pattern computation reads one cached table per order: the digits
of all D! patterns in id order (:func:`pattern_table`).  Pattern strings,
families, ranks and the day-by-position accumulation
(:func:`position_counts`) are array operations on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterator

import numpy as np

from .errors import InvalidInputError

MAX_ORDER = 10


@dataclass(frozen=True)
class OrdinalPattern:
    """Permutation of day offsets ordered from worst to best return."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.digits)
        if d < 2:
            raise InvalidInputError(f"pattern needs at least 2 digits, got {d}")
        if d > MAX_ORDER:
            raise InvalidInputError(f"pattern order {d} exceeds supported maximum {MAX_ORDER}")
        if sorted(self.digits) != list(range(d)):
            raise InvalidInputError(f"digits {self.digits} are not a permutation of 0..{d - 1}")
        object.__setattr__(self, "digits", tuple(int(x) for x in self.digits))

    @property
    def order(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)


def _validate_order(order: int) -> int:
    order = int(order)
    if order < 2 or order > MAX_ORDER:
        raise InvalidInputError(f"order must be in 2..{MAX_ORDER}, got {order}")
    return order


def _as_window(window) -> np.ndarray:
    w = np.asarray(window, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise InvalidInputError("window must be a 1-d sequence of at least 2 values")
    if w.size > MAX_ORDER:
        raise InvalidInputError(f"window length {w.size} exceeds supported maximum {MAX_ORDER}")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("window contains non-finite values")
    return w


def _digits_for_rows(rows: np.ndarray) -> np.ndarray:
    """Digit matrix for a (n, D) block of windows, one pattern per row."""
    return np.argsort(rows, axis=1, kind="stable")


def encode_window(window) -> OrdinalPattern:
    """Encode one window of returns into its ordinal pattern.

    ``digits[j]`` is the index (day offset) of the j-th smallest value.
    Of equal values the earlier day ranks lower; use
    :func:`window_has_ties` to detect whether that rule was exercised.
    """
    w = _as_window(window)
    digits = _digits_for_rows(w[None, :])[0]
    return OrdinalPattern(tuple(int(x) for x in digits))


def window_has_ties(window) -> bool:
    """True when at least two values in the window are exactly equal."""
    w = _as_window(window)
    return bool(np.unique(w).size < w.size)


def rank_pattern(pattern: OrdinalPattern) -> int:
    """1-based lexicographic rank of the pattern's digit string."""
    return int(_ranks_for_digit_rows(np.array([pattern.digits]))[0])


def unrank_pattern(pattern_id: int, order: int) -> OrdinalPattern:
    """Inverse of :func:`rank_pattern` for the given order."""
    order = _validate_order(order)
    pattern_id = int(pattern_id)
    if not 1 <= pattern_id <= math.factorial(order):
        raise InvalidInputError(f"pattern id {pattern_id} out of range 1..{order}!")
    rem = pattern_id - 1
    available = list(range(order))
    digits = []
    for j in range(order):
        f = math.factorial(order - 1 - j)
        q, rem = divmod(rem, f)
        digits.append(available.pop(q))
    return OrdinalPattern(tuple(digits))


@lru_cache(maxsize=None)
def pattern_table(order: int) -> np.ndarray:
    """Digits of all D! patterns in id order: a read-only int8 array of shape (D!, D).

    Row ``k`` holds pattern id ``k + 1`` (itertools emits permutations
    lexicographically).  Built once per order and shared by every caller.
    """
    order = _validate_order(order)
    digits = chain.from_iterable(permutations(range(order)))
    table = np.fromiter(digits, dtype=np.int8, count=math.factorial(order) * order)
    table = table.reshape(-1, order)
    table.flags.writeable = False
    return table


def all_patterns(order: int) -> Iterator[OrdinalPattern]:
    """All D! patterns in id order."""
    for digits in pattern_table(order).tolist():
        yield OrdinalPattern(tuple(digits))


def pattern_strings(order: int) -> list[str]:
    """Digit strings of all D! patterns in id order, as ``str(OrdinalPattern)`` prints them."""
    table = pattern_table(order)
    # one ASCII digit per cell (D <= 10), each row viewed as one byte string
    chars = (table + ord("0")).astype(np.uint8)
    return chars.view(f"S{table.shape[1]}").ravel().astype(str).tolist()


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


def _ranks_for_digit_rows(digit_rows: np.ndarray) -> np.ndarray:
    """Vectorized Lehmer rank (1-based) for a (n, D) matrix of digit rows."""
    n, d = digit_rows.shape
    code = np.zeros(n, dtype=np.int64)
    for j in range(d - 1):
        smaller_after = (digit_rows[:, j + 1 :] < digit_rows[:, j : j + 1]).sum(axis=1)
        code += smaller_after.astype(np.int64) * math.factorial(d - 1 - j)
    return code + 1


class PatternFamily(Enum):
    """Named pattern subsets expressing one seasonal feature."""

    MONDAY_LARGEST = "monday-largest"
    MONDAY_WORST_FRIDAY_BEST = "monday-worst-friday-best"


def pattern_family(kind: PatternFamily, order: int = 5) -> frozenset[int]:
    """Pattern ids in the family, for windows starting on Monday (day 0).

    ``MONDAY_LARGEST`` selects patterns whose last digit is 0 (Monday holds
    the best return of the week), (D-1)! ids.  ``MONDAY_WORST_FRIDAY_BEST``
    selects first digit 0 and last digit D-1, (D-2)! ids.
    """
    order = _validate_order(order)
    if order < 3:
        raise InvalidInputError("pattern families need order >= 3")
    table = pattern_table(order)
    if kind is PatternFamily.MONDAY_LARGEST:
        members = table[:, -1] == 0
    elif kind is PatternFamily.MONDAY_WORST_FRIDAY_BEST:
        members = (table[:, 0] == 0) & (table[:, -1] == order - 1)
    else:  # pragma: no cover - enum is closed
        raise InvalidInputError(f"unknown family {kind!r}")
    return frozenset((np.flatnonzero(members) + 1).tolist())


@dataclass
class PatternDistribution:
    """Absolute frequency of every pattern of a given order.

    ``counts[k]`` is the number of windows encoding to pattern id ``k + 1``.
    """

    order: int
    counts: np.ndarray
    windows: int
    ties_observed: int = 0
    dropped_points: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        self.order = _validate_order(self.order)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (math.factorial(self.order),):
            raise InvalidInputError(
                f"counts must have length {self.order}! = {math.factorial(self.order)}"
            )
        if (counts < 0).any():
            raise InvalidInputError("counts must be non-negative")
        if int(counts.sum()) != int(self.windows):
            raise InvalidInputError("counts must sum to the window count")
        if self.ties_observed < 0:
            raise InvalidInputError("ties_observed must be non-negative")
        self.counts = counts
        self.windows = int(self.windows)

    def relative(self) -> np.ndarray:
        """Relative frequency per pattern id."""
        if self.windows == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / float(self.windows)

    def family_count(self, ids) -> int:
        idx = np.asarray(sorted(ids), dtype=np.int64) - 1
        return int(self.counts[idx].sum())


def count_windows(windows: np.ndarray, label: str = "", dropped_points: int = 0) -> PatternDistribution:
    """Count patterns over an explicit (n, D) block of windows.

    Of equal values the earlier day ranks lower; the windows holding any
    tie are counted in ``ties_observed``.
    """
    rows = np.asarray(windows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise InvalidInputError("windows must be a non-empty (n, D) array")
    order = _validate_order(rows.shape[1])
    if not np.all(np.isfinite(rows)):
        raise InvalidInputError("windows contain non-finite values")

    digit_rows = _digits_for_rows(rows)
    ids = _ranks_for_digit_rows(digit_rows)
    counts = np.bincount(ids - 1, minlength=math.factorial(order)).astype(np.int64)

    sorted_rows = np.take_along_axis(rows, digit_rows, axis=1)
    ties = int((np.diff(sorted_rows, axis=1) == 0).any(axis=1).sum())
    return PatternDistribution(
        order=order,
        counts=counts,
        windows=rows.shape[0],
        ties_observed=ties,
        dropped_points=dropped_points,
        label=label,
    )


def count_patterns(series, order: int = 5, stride: int | None = None) -> PatternDistribution:
    """Count ordinal patterns over non-overlapping (or strided) windows.

    ``series`` may be a plain array or anything with a ``values`` attribute.
    The default stride equals the order, the week-partition convention; any
    trailing values too short for a full window are dropped and reported in
    ``dropped_points``.
    """
    values = np.asarray(getattr(series, "values", series), dtype=float)
    label = str(getattr(series, "label", ""))
    order = _validate_order(order)
    if values.ndim != 1:
        raise InvalidInputError("series must be one-dimensional")
    if values.size < order:
        raise InvalidInputError(f"series of length {values.size} is shorter than order {order}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("series contains non-finite values")
    stride = order if stride is None else int(stride)
    if stride < 1:
        raise InvalidInputError("stride must be >= 1")

    rows = np.lib.stride_tricks.sliding_window_view(values, order)[::stride]
    dropped = values.size - ((rows.shape[0] - 1) * stride + order)
    return count_windows(rows, label=label, dropped_points=dropped)
