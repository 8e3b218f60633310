import numpy as np
import pytest

from ordinal_seasonality.fixtures import (
    NYSE_PATTERN_COUNTS,
    NYSE_POSITION_MATRIX,
    NYSE_SHUFFLED_POSITION_MATRIX,
    decompose_position_matrix,
    nyse_fixture_distribution,
    nyse_shuffled_distribution,
    series_from_distribution,
)
from ordinal_seasonality.patterns import count_patterns, unrank_pattern
from ordinal_seasonality.stats import (
    chi2_statistic,
    position_matrix,
)
from ordinal_seasonality.stats import test_h2_day_rows as h2_test
from ordinal_seasonality.stats import test_h3_position_columns as h3_test
from oracles import position_counts_by_loop

ROW_Q = (22.78967, 17.94834, 9.92989, 12.66052, 16.74908)
ROW_STARS = ("***", "***", "**", "**", "***")
COL_Q = (36.21402, 11.25092, 11.56089, 9.12177, 11.92989)
COL_STARS = ("***", "**", "**", "*", "**")
SHUFFLED_ROW_Q = (1.91393, 1.95082, 2.24590, 1.32787, 5.75410)
SHUFFLED_COL_Q = (4.47951, 2.09016, 2.69672, 1.49590, 2.43033)


def test_bundled_histogram_is_complete():
    assert len(NYSE_PATTERN_COUNTS) == 120
    assert sum(NYSE_PATTERN_COUNTS.values()) == 2440


def test_fixture_matches_bundled_matrix():
    dist = nyse_fixture_distribution()
    assert dist.windows == 2710
    matrix = position_matrix(dist)
    assert np.array_equal(matrix.a, NYSE_POSITION_MATRIX)


def test_fixture_preserves_extremes():
    dist = nyse_fixture_distribution()
    min_ids = np.flatnonzero(dist.counts == dist.counts.min()) + 1
    max_ids = np.flatnonzero(dist.counts == dist.counts.max()) + 1
    assert dist.counts.min() == 7
    assert [str(unrank_pattern(int(i), 5)) for i in min_ids] == ["42013"]
    assert dist.counts.max() == 34
    assert sorted(str(unrank_pattern(int(i), 5)) for i in max_ids) == ["03421", "04312"]


def test_fixture_row_and_column_q():
    matrix = position_matrix(nyse_fixture_distribution())
    rows = h2_test(matrix)
    columns = h3_test(matrix)
    for outcome, expected, stars in zip(rows, ROW_Q, ROW_STARS):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert outcome.stars() == stars
    for outcome, expected, stars in zip(columns, COL_Q, COL_STARS):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert outcome.stars() == stars


def test_row_we_rejects_at_5_not_1():
    matrix = position_matrix(nyse_fixture_distribution())
    we = h2_test(matrix)[2]
    assert we.reject_05 and not we.reject_01


def test_column_3_rejects_at_10_only():
    matrix = position_matrix(nyse_fixture_distribution())
    col = h3_test(matrix)[3]
    assert col.reject_10 and not col.reject_05


def test_shuffled_fixture():
    dist = nyse_shuffled_distribution()
    assert dist.windows == 2440
    matrix = position_matrix(dist)
    assert np.array_equal(matrix.a, NYSE_SHUFFLED_POSITION_MATRIX)
    rows = h2_test(matrix)
    columns = h3_test(matrix)
    for outcome, expected in zip(rows, SHUFFLED_ROW_Q):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert not outcome.reject_10
    for outcome, expected in zip(columns, SHUFFLED_COL_Q):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert not outcome.reject_10


def test_series_realizes_fixture_counts():
    dist = nyse_fixture_distribution()
    series = series_from_distribution(dist)
    assert len(series) == 13550
    recounted = count_patterns(series, order=5, stride=5)
    assert np.array_equal(recounted.counts, dist.counts)


def test_whole_period_q_from_series():
    series = series_from_distribution(nyse_fixture_distribution())
    matrix = position_matrix(count_patterns(series, order=5, stride=5))
    assert chi2_statistic(matrix.a[0]) == pytest.approx(22.78967, abs=1e-5)


def test_decompose_plain_matrix():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 30, size=120)
    matrix = position_counts_by_loop(counts, 5).astype(np.int64)
    rebuilt = decompose_position_matrix(matrix)
    assert np.array_equal(position_counts_by_loop(rebuilt, 5).astype(np.int64), matrix)
