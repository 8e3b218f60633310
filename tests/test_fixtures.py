import numpy as np
import pytest

from ordinal_seasonality.cli import _outcome_dict
from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.fixtures import (
    NYSE_PATTERN_COUNTS,
    NYSE_POSITION_MATRIX,
    NYSE_SHUFFLED_POSITION_MATRIX,
    _pattern_counts_array,
    decompose_position_matrix,
    nyse_fixture_distribution,
    nyse_shuffled_distribution,
    series_from_distribution,
)
from ordinal_seasonality.patterns import PatternDistribution, count_patterns, pattern_strings
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


@pytest.mark.parametrize("digits", ["0123", "01233", "012345", "0123a"])
def test_histogram_keys_must_be_patterns_of_the_order(digits):
    with pytest.raises(InvalidInputError, match="is not a pattern of order 5"):
        _pattern_counts_array(5, {"01234": 3, digits: 1})


def test_fixture_matches_bundled_matrix():
    dist = nyse_fixture_distribution()
    assert dist.windows == 2710
    matrix = position_matrix(dist)
    assert np.array_equal(matrix, NYSE_POSITION_MATRIX)


def test_fixture_preserves_extremes():
    dist = nyse_fixture_distribution()
    min_ids = np.flatnonzero(dist.counts == dist.counts.min()) + 1
    max_ids = np.flatnonzero(dist.counts == dist.counts.max()) + 1
    assert dist.counts.min() == 7
    strings = pattern_strings(5)
    assert [strings[i - 1] for i in min_ids] == ["42013"]
    assert dist.counts.max() == 34
    assert sorted(strings[i - 1] for i in max_ids) == ["03421", "04312"]


def test_fixture_row_and_column_q():
    matrix = position_matrix(nyse_fixture_distribution())
    rows = h2_test(matrix)
    columns = h3_test(matrix)
    for outcome, expected, stars in zip(rows, ROW_Q, ROW_STARS):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert _outcome_dict(outcome)["stars"] == stars
    for outcome, expected, stars in zip(columns, COL_Q, COL_STARS):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert _outcome_dict(outcome)["stars"] == stars


def test_row_we_rejects_at_5_not_1():
    matrix = position_matrix(nyse_fixture_distribution())
    we = _outcome_dict(h2_test(matrix)[2])
    assert we["reject_05"] and not we["reject_01"]


def test_column_3_rejects_at_10_only():
    matrix = position_matrix(nyse_fixture_distribution())
    col = _outcome_dict(h3_test(matrix)[3])
    assert col["reject_10"] and not col["reject_05"]


def test_shuffled_fixture():
    dist = nyse_shuffled_distribution()
    assert dist.windows == 2440
    matrix = position_matrix(dist)
    assert np.array_equal(matrix, NYSE_SHUFFLED_POSITION_MATRIX)
    rows = h2_test(matrix)
    columns = h3_test(matrix)
    for outcome, expected in zip(rows, SHUFFLED_ROW_Q):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert not _outcome_dict(outcome)["reject_10"]
    for outcome, expected in zip(columns, SHUFFLED_COL_Q):
        assert outcome.statistic == pytest.approx(expected, abs=1e-5)
        assert not _outcome_dict(outcome)["reject_10"]


def test_series_realizes_fixture_counts():
    dist = nyse_fixture_distribution()
    series = series_from_distribution(dist)
    assert len(series) == 13550
    recounted = count_patterns(series, order=5)
    assert np.array_equal(recounted.counts, dist.counts)


def test_series_from_distribution_rejects_zero_windows():
    empty = PatternDistribution(order=5, counts=np.zeros(120, dtype=np.int64))
    with pytest.raises(InvalidInputError, match="^series must be a non-empty 1-d sequence$"):
        series_from_distribution(empty)


def test_whole_period_q_from_series():
    series = series_from_distribution(nyse_fixture_distribution())
    matrix = position_matrix(count_patterns(series, order=5))
    assert chi2_statistic(matrix[0]) == pytest.approx(22.78967, abs=1e-5)


def test_decompose_plain_matrix():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 30, size=120)
    matrix = position_counts_by_loop(counts, 5).astype(np.int64)
    rebuilt = decompose_position_matrix(matrix)
    assert np.array_equal(position_counts_by_loop(rebuilt, 5).astype(np.int64), matrix)


def test_a_zero_cap_excludes_a_pattern():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 30, size=120)
    matrix = position_counts_by_loop(counts, 5).astype(np.int64)
    # the uncapped decomposition gives 12340 and 23401 (ids 34 and 65) 368 and 365 blocks
    assert decompose_position_matrix(matrix)[[33, 64]].tolist() == [368, 365]
    caps = np.full(120, 1_000, dtype=np.int64)
    caps[[33, 64]] = 0
    rebuilt = decompose_position_matrix(matrix, caps)
    assert rebuilt[[33, 64]].tolist() == [0, 0]
    assert np.array_equal(position_counts_by_loop(rebuilt, 5).astype(np.int64), matrix)
