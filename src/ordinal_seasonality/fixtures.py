"""Bundled NYSE Composite reference data (daily log returns, 1966-2017).

The raw price history is not redistributable, so the package ships summary
statistics instead: the whole-period ordinal-pattern histogram (2,440
five-day blocks), the whole-period day-by-position count matrix (2,710
blocks), and the matrix of a shuffled realization (2,440 blocks).  The
histogram covers fewer blocks than the whole-period matrix; the fixture
builder tops it up with a minimal doubly-balanced completion so that the
reconstructed distribution reproduces the whole-period matrix cell for
cell while keeping the histogram's least/most frequent patterns intact.

From any of these a synthetic return series can be emitted whose
block-partition pattern counts equal the reconstruction exactly, which is
what the bit-exact analysis tests run on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .ingest import ReturnSeries
from .patterns import PatternDistribution, pattern_strings, pattern_table, position_counts

# pattern digit-string -> absolute frequency, whole period (2,440 blocks)
NYSE_PATTERN_COUNTS = {
    "42013": 7, "23041": 10, "24013": 10, "02413": 11, "13240": 11,
    "13402": 11, "23104": 11, "30124": 11, "40123": 11, "40132": 11,
    "41203": 11, "43102": 11, "20143": 12, "24310": 12, "42103": 12,
    "20341": 13, "23014": 13, "13024": 14, "14203": 14, "24103": 14,
    "24130": 14, "31024": 14, "41320": 14, "30142": 15, "30214": 15,
    "30412": 15, "40213": 15, "41023": 15, "12304": 16, "13420": 16,
    "14320": 16, "20314": 16, "23140": 16, "31204": 16, "04213": 17,
    "20413": 17, "40312": 17, "41230": 17, "20431": 18, "23410": 18,
    "40231": 18, "02143": 19, "02341": 19, "03142": 19, "10342": 19,
    "12340": 19, "23401": 19, "24031": 19, "30421": 19, "32041": 19,
    "41032": 19, "42130": 19, "43120": 19, "01324": 20, "12430": 20,
    "31042": 20, "31402": 20, "32401": 20, "32410": 20, "40321": 20,
    "42031": 20, "42301": 20, "43012": 20, "43210": 20, "10324": 21,
    "12043": 21, "13042": 21, "14032": 21, "34201": 21, "02134": 22,
    "03124": 22, "10432": 22, "21340": 22, "21430": 22, "24301": 22,
    "32014": 22, "34102": 22, "41302": 22, "01243": 23, "03241": 23,
    "10234": 23, "12034": 23, "14302": 23, "21034": 23, "32104": 23,
    "03214": 24, "04321": 24, "13204": 24, "14230": 24, "21043": 24,
    "21403": 24, "32140": 24, "42310": 24, "02431": 25, "04123": 25,
    "01423": 26, "03412": 26, "20134": 26, "34012": 26, "34210": 26,
    "01342": 27, "12403": 27, "31420": 27, "34021": 27, "43201": 27,
    "02314": 28, "10423": 28, "21304": 28, "01234": 29, "34120": 29,
    "10243": 30, "14023": 30, "01432": 31, "04132": 31, "04231": 31,
    "30241": 31, "31240": 31, "43021": 31, "03421": 34, "04312": 34,
}

# day-by-position counts, whole period (rows Mo..Fr, columns worst..best)
NYSE_POSITION_MATRIX = np.array(
    [
        [637, 503, 537, 501, 532],
        [557, 572, 475, 509, 597],
        [479, 540, 564, 564, 563],
        [570, 505, 564, 581, 490],
        [467, 590, 570, 555, 528],
    ],
    dtype=np.int64,
)

# day-by-position counts of a shuffled realization of the same data
NYSE_SHUFFLED_POSITION_MATRIX = np.array(
    [
        [506, 469, 501, 484, 480],
        [488, 508, 472, 498, 474],
        [513, 475, 491, 471, 490],
        [479, 491, 509, 482, 479],
        [454, 497, 467, 505, 517],
    ],
    dtype=np.int64,
)


def _pattern_ids(order: int, digit_strings) -> np.ndarray:
    """Ids of digit strings, each of which must be a pattern of the given order."""
    strings = pattern_strings(order)  # sorted, since ids are lexicographic ranks
    wanted = np.array(list(digit_strings), dtype=str)
    rows = np.minimum(np.searchsorted(strings, wanted), strings.size - 1)
    missing = np.flatnonzero(strings[rows] != wanted)
    if missing.size:
        raise InvalidInputError(f"{str(wanted[missing[0]])!r} is not a pattern of order {order}")
    return rows + 1


def _pattern_counts_array(order: int, table: dict[str, int]) -> np.ndarray:
    counts = np.zeros(math.factorial(order), dtype=np.int64)
    counts[_pattern_ids(order, table) - 1] = list(table.values())
    return counts


def decompose_position_matrix(matrix: np.ndarray, caps: np.ndarray | None = None) -> np.ndarray:
    """Express a doubly-balanced count matrix as pattern counts.

    Returns per-pattern counts whose day-by-position accumulation equals
    ``matrix`` (a discrete Birkhoff-style decomposition).  Each step
    allocates to the admissible pattern with the largest bottleneck cell,
    which keeps the remaining support wide enough for the constrained
    endgame.  ``caps``, indexed by pattern id - 1, limits the weight each
    pattern may receive; a cap of 0 excludes the pattern.  Exhaustive over D!
    patterns per step, so meant for small orders.  Raises when the
    constraints strand a nonzero residual.
    """
    residual = np.array(matrix, dtype=np.int64, copy=True)
    if residual.ndim != 2 or residual.shape[0] != residual.shape[1]:
        raise InvalidInputError("matrix must be square")
    order = residual.shape[0]
    if (residual < 0).any():
        raise InvalidInputError("matrix entries must be non-negative")
    row_sums = residual.sum(axis=1)
    if not (row_sums == residual.sum(axis=0)).all() or np.ptp(row_sums) != 0:
        raise InvalidInputError("matrix must have equal row and column sums")

    table = pattern_table(order)
    cols = np.arange(order)
    counts = np.zeros(math.factorial(order), dtype=np.int64)
    remaining = (
        np.full(counts.size, np.iinfo(np.int64).max // 2, dtype=np.int64)
        if caps is None
        else np.array(caps, dtype=np.int64, copy=True)
    )

    while residual.any():
        bottlenecks = residual[table, cols].min(axis=1)
        bottlenecks[remaining <= 0] = 0
        best = int(np.argmax(bottlenecks))  # the first pattern with the largest bottleneck
        if bottlenecks[best] <= 0:
            raise InvalidInputError("constraints admit no further pattern assignment")
        weight = min(int(bottlenecks[best]), int(remaining[best]))
        counts[best] += weight
        residual[table[best], cols] -= weight
        remaining[best] -= weight
    return counts


@lru_cache(maxsize=1)
def nyse_fixture_distribution() -> PatternDistribution:
    """Whole-period reconstruction: 2,710 blocks matching the bundled matrix.

    The bundled histogram is completed with 270 extra blocks, distributed
    so that no pattern overtakes the two recorded maxima (34) and the
    recorded minimum (7 at 42013) stays unique.
    """
    base = _pattern_counts_array(5, NYSE_PATTERN_COUNTS)
    residual = NYSE_POSITION_MATRIX - position_counts(base, 5).astype(np.int64)
    caps = np.maximum(33 - base, 0)
    caps[_pattern_ids(5, ("42013", "03421", "04312")) - 1] = 0  # no extra blocks for the minimum and maxima
    extra = decompose_position_matrix(residual, caps)
    return PatternDistribution(order=5, counts=base + extra)


@lru_cache(maxsize=1)
def nyse_shuffled_distribution() -> PatternDistribution:
    """A distribution realizing the bundled shuffled day-by-position matrix."""
    return PatternDistribution(order=5, counts=decompose_position_matrix(NYSE_SHUFFLED_POSITION_MATRIX))


def series_from_distribution(dist: PatternDistribution) -> ReturnSeries:
    """Synthetic return series whose block-partition counts equal ``dist``.

    Each pattern contributes ``counts`` consecutive windows; within a
    window the day at rank r receives the r-th of D evenly spaced levels
    in [-0.02, 0.02].
    """
    levels = np.linspace(-0.02, 0.02, dist.order)
    # the day at rank r of pattern k is table[k, r], so day i gets the level of its rank
    windows = levels[np.argsort(pattern_table(dist.order), axis=1)]
    values = np.repeat(windows, dist.counts, axis=0).ravel()
    return ReturnSeries(values=values, label="synthetic")
