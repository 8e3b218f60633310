import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.patterns import (
    OrdinalPattern,
    PatternFamily,
    _ranks_for_digit_rows,
    all_patterns,
    count_patterns,
    count_windows,
    encode_window,
    pattern_family,
    pattern_strings,
    pattern_table,
    position_counts,
    rank_pattern,
    unrank_pattern,
    window_has_ties,
)
from oracles import family_ids_by_enumeration, lexicographic_rank, position_counts_by_loop


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_week_with_monday_worst():
    # Mo < Fr < Tu < Th < We
    assert encode_window((-2.0, 0.5, 3.0, 1.0, -1.0)).digits == (0, 4, 1, 3, 2)


def test_encode_monotone_windows():
    assert encode_window((1, 2, 3, 4, 5)).digits == (0, 1, 2, 3, 4)
    assert encode_window((5, 4, 3, 2, 1)).digits == (4, 3, 2, 1, 0)


def test_encode_tie_earlier_index_ranks_lower():
    assert encode_window((1.0, 1.0, 2.0, 3.0, 4.0)).digits == (0, 1, 2, 3, 4)


def test_window_has_ties():
    assert window_has_ties((1.0, 1.0, 2.0))
    assert not window_has_ties((1.0, 1.5, 2.0))


def test_encode_rejects_bad_windows():
    with pytest.raises(InvalidInputError):
        encode_window((1.0,))
    with pytest.raises(InvalidInputError):
        encode_window((1.0, float("nan"), 2.0))
    with pytest.raises(InvalidInputError):
        encode_window((1.0, float("inf"), 2.0))


@settings(max_examples=200)
@given(
    st.lists(
        st.integers(min_value=-10_000, max_value=10_000),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_encode_invariant_under_monotone_transforms(scaled):
    # integer grid / 100 keeps values far enough apart that exp() cannot
    # collapse distinct inputs to the same double
    window = np.asarray(scaled, dtype=float) / 100.0
    base = encode_window(window)
    assert encode_window(np.exp(window / 200.0)) == base
    assert encode_window(3.0 * window + 7.0) == base


# ---------------------------------------------------------------------------
# rank / unrank
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "digits, expected_id",
    [
        ((0, 1, 2, 3, 4), 1),
        ((4, 3, 2, 1, 0), 120),
        ((0, 4, 1, 3, 2), 20),
        ((1, 2, 3, 4, 0), 34),
        ((0, 2, 1, 3, 4), 7),
    ],
)
def test_rank_known_ids(digits, expected_id):
    assert rank_pattern(OrdinalPattern(digits)) == expected_id


def test_unrank_known_ids():
    assert unrank_pattern(7, 5).digits == (0, 2, 1, 3, 4)
    assert unrank_pattern(1, 5).digits == (0, 1, 2, 3, 4)


def test_unrank_out_of_range():
    with pytest.raises(InvalidInputError):
        unrank_pattern(0, 5)
    with pytest.raises(InvalidInputError):
        unrank_pattern(121, 5)


@pytest.mark.parametrize("order", range(2, 9))
def test_rank_unrank_bijection_exhaustive(order):
    for pattern_id in range(1, math.factorial(order) + 1):
        assert rank_pattern(unrank_pattern(pattern_id, order)) == pattern_id


def test_rank_matches_enumeration_oracle():
    for perm in permutations(range(5)):
        assert rank_pattern(OrdinalPattern(perm)) == lexicographic_rank(perm, 5)


def test_all_patterns_in_id_order():
    for k, pattern in enumerate(all_patterns(4), start=1):
        assert rank_pattern(pattern) == k


# ---------------------------------------------------------------------------
# pattern table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", range(2, 8))
def test_table_rows_are_sorted_permutations_with_consecutive_ranks(order):
    table = pattern_table(order)
    assert table.dtype == np.int8 and not table.flags.writeable
    assert [tuple(row) for row in table.tolist()] == sorted(permutations(range(order)))
    assert np.array_equal(_ranks_for_digit_rows(table), np.arange(1, math.factorial(order) + 1))
    assert pattern_strings(order) == ["".join(map(str, row)) for row in table.tolist()]


@pytest.mark.parametrize("order", range(2, 8))
def test_table_position_counts_equal_the_loop_bit_for_bit(order):
    rng = np.random.default_rng(order)
    ints = rng.integers(0, 40, size=math.factorial(order))
    ints[rng.random(ints.size) < 0.3] = 0  # sparse, as at high order
    for counts in (ints, ints / 7):
        got = position_counts(counts, order)
        want = position_counts_by_loop(counts, order)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", range(3, 8))
def test_table_families_equal_enumeration(order):
    assert pattern_family(PatternFamily.MONDAY_LARGEST, order) == family_ids_by_enumeration(
        order, lambda p: p[-1] == 0
    )
    assert pattern_family(PatternFamily.MONDAY_WORST_FRIDAY_BEST, order) == family_ids_by_enumeration(
        order, lambda p: p[0] == 0 and p[-1] == order - 1
    )


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_increasing_series():
    dist = count_patterns(np.arange(10, dtype=float), order=5, stride=5)
    assert dist.windows == 2
    assert dist.counts[0] == 2
    assert dist.counts[1:].sum() == 0


def test_count_window_arithmetic():
    rng = np.random.default_rng(5)
    dist = count_patterns(rng.standard_normal(13550), order=5, stride=5)
    assert dist.windows == 2710
    assert dist.dropped_points == 0


def test_count_dropped_tail():
    dist = count_patterns(np.arange(12, dtype=float), order=5, stride=5)
    assert dist.windows == 2
    assert dist.dropped_points == 2


def test_count_overlapping_stride_one():
    dist = count_patterns(np.arange(10, dtype=float), order=5, stride=1)
    assert dist.windows == 6


def test_count_requires_full_window():
    with pytest.raises(InvalidInputError):
        count_patterns(np.arange(4, dtype=float), order=5)


def test_count_reports_ties():
    values = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    dist = count_patterns(values, order=5, stride=5)
    assert dist.ties_observed == 1
    assert dist.windows == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_count_conservation(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, size=103).astype(float)  # deliberately tie-heavy
    dist = count_windows(values[: 100].reshape(20, 5))
    assert dist.counts.sum() == dist.windows == 20


def test_vectorized_counting_matches_scalar_path():
    rng = np.random.default_rng(77)
    values = rng.standard_normal(400)
    dist = count_patterns(values, order=4, stride=4)
    expected = np.zeros(24, dtype=np.int64)
    for start in range(0, 400, 4):
        pattern = encode_window(values[start : start + 4])
        expected[rank_pattern(pattern) - 1] += 1
    assert np.array_equal(dist.counts, expected)


def test_uniformity_on_iid_noise():
    rng = np.random.default_rng(20240809)
    dist = count_patterns(rng.standard_normal(600_000), order=5, stride=5)
    n_w = dist.windows
    assert n_w == 120_000
    p = 1.0 / 120.0
    se = math.sqrt(p * (1 - p) / n_w)
    deviations = np.abs(dist.relative() - p)
    assert deviations.max() <= 5.0 * se


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_family_monday_largest_matches_reference_ids():
    expected = {34, 36, 40, 42, 46, 48, 58, 60, 64, 66, 70, 72,
                82, 84, 88, 90, 94, 96, 106, 108, 112, 114, 118, 120}
    assert pattern_family(PatternFamily.MONDAY_LARGEST, 5) == expected
    assert expected == family_ids_by_enumeration(5, lambda p: p[-1] == 0)


def test_family_monday_worst_friday_best_ids():
    expected = {1, 3, 7, 9, 13, 15}
    assert pattern_family(PatternFamily.MONDAY_WORST_FRIDAY_BEST, 5) == expected
    assert expected == family_ids_by_enumeration(5, lambda p: p[0] == 0 and p[-1] == 4)


def test_family_monday_largest_d3():
    # permutations of {0,1,2} in id order: 012, 021, 102, 120, 201, 210;
    # those ending in day 0 are 120 (id 4) and 210 (id 6)
    assert pattern_family(PatternFamily.MONDAY_LARGEST, 3) == {4, 6}
    assert pattern_family(PatternFamily.MONDAY_LARGEST, 3) == family_ids_by_enumeration(
        3, lambda p: p[-1] == 0
    )


@pytest.mark.parametrize("order", range(3, 8))
def test_family_cardinalities(order):
    largest = pattern_family(PatternFamily.MONDAY_LARGEST, order)
    worst_best = pattern_family(PatternFamily.MONDAY_WORST_FRIDAY_BEST, order)
    assert len(largest) == math.factorial(order - 1)
    assert len(worst_best) == math.factorial(order - 2)
    assert worst_best <= set(range(1, math.factorial(order) + 1))


def test_family_requires_order_three():
    with pytest.raises(InvalidInputError):
        pattern_family(PatternFamily.MONDAY_LARGEST, 2)
