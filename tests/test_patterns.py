import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.patterns import (
    PatternDistribution,
    PatternFamily,
    _pattern_codes,
    count_patterns,
    count_windows,
    family_index,
    family_share,
    pattern_family,
    pattern_strings,
    pattern_table,
    position_counts,
)
from oracles import family_ids_by_enumeration, lexicographic_rank, position_counts_by_loop


# ---------------------------------------------------------------------------
# encoding: the kernel ranks a window, the table unranks an id
# ---------------------------------------------------------------------------


def _ids(windows) -> list[int]:
    """The kernel's 1-based id of each window."""
    return (_pattern_codes(np.asarray(windows, dtype=float))[0] + 1).tolist()


def test_encode_week_with_monday_worst():
    # Mo < Fr < Tu < Th < We
    (pattern_id,) = _ids([(-2.0, 0.5, 3.0, 1.0, -1.0)])
    assert pattern_strings(5)[pattern_id - 1] == "04132"


def test_encode_monotone_windows():
    assert _ids([(1, 2, 3, 4, 5), (5, 4, 3, 2, 1)]) == [1, 120]


def test_encode_tie_earlier_index_ranks_lower():
    dist = count_windows([(1.0, 1.0, 2.0, 3.0, 4.0)])
    assert dist.counts[0] == 1 and dist.ties_observed == 1


def test_window_has_ties():
    # the kernel's tie flag needs exactly equal values; the next double up is no tie
    _, tied = _pattern_codes(np.array([(1.0, 1.0, 2.0), (1.0, 1.0 + 2**-52, 2.0)]))
    assert tied.tolist() == [True, False]


def test_encode_rejects_bad_windows():
    for bad in (np.ones((3, 1)), np.ones((3, 11)), np.ones((0, 5))):
        with pytest.raises(InvalidInputError):
            count_windows(bad)
    for value in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            count_windows([(1.0, value, 2.0)])


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
    dist = count_windows(np.stack([window, np.exp(window / 200.0), 3.0 * window + 7.0]))
    assert np.count_nonzero(dist.counts) == 1 and dist.ties_observed == 0


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
    window = np.empty(5)
    window[list(digits)] = np.arange(5)  # the day at rank r gets value r
    assert _ids([window]) == [expected_id]
    assert lexicographic_rank(digits, 5) == expected_id


def test_unrank_known_ids():
    assert pattern_strings(5)[7 - 1] == "02134"
    assert pattern_strings(5)[1 - 1] == "01234"


@pytest.mark.parametrize("order", range(2, 9))
def test_rank_unrank_bijection_exhaustive(order):
    # day i of the window built from row k gets its rank in that row, so the row is its pattern
    windows = np.argsort(pattern_table(order), axis=1)
    assert _ids(windows) == list(range(1, math.factorial(order) + 1))


# ---------------------------------------------------------------------------
# pattern table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", range(2, 9))
def test_table_rows_are_sorted_permutations_with_consecutive_ranks(order):
    table = pattern_table(order)
    assert table.dtype == np.int8 and not table.flags.writeable
    assert [tuple(row) for row in table.tolist()] == sorted(permutations(range(order)))
    ranks = [lexicographic_rank(row, order) for row in table.tolist()]
    assert ranks == list(range(1, math.factorial(order) + 1))
    assert pattern_strings(order).tolist() == ["".join(map(str, row)) for row in table.tolist()]


@pytest.mark.parametrize("order", [9, 10])
def test_large_tables_hold_every_permutation_in_increasing_order(order):
    # D! rows that are permutations and strictly increase as numbers are all D! permutations in order
    table = pattern_table(order)
    assert table.dtype == np.int8 and not table.flags.writeable
    assert table.shape == (math.factorial(order), order)
    assert (np.sort(table, axis=1) == np.arange(order)).all()
    value = np.zeros(table.shape[0], dtype=np.int64)
    for column in table.T:
        value = value * 10 + column
    assert (np.diff(value) > 0).all()


@pytest.mark.parametrize("order", range(2, 8))
def test_table_position_counts_equal_the_loop_bit_for_bit(order):
    rng = np.random.default_rng(order)
    ints = rng.integers(0, 40, size=math.factorial(order))
    ints[rng.random(ints.size) < 0.3] = 0  # sparse, as at high order
    for counts in (ints, ints / 7):
        got = position_counts(counts, order)
        want = position_counts_by_loop(counts, order)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", range(2, 8))
def test_table_families_equal_enumeration(order):
    for kind in PatternFamily:
        rows = family_index(kind, order)
        assert not rows.flags.writeable and (np.diff(rows) > 0).all()
        assert pattern_family(kind, order) == set((rows + 1).tolist())
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
    dist = count_patterns(np.arange(10, dtype=float), order=5)
    assert dist.windows == 2
    assert dist.counts[0] == 2
    assert dist.counts[1:].sum() == 0


def test_count_window_arithmetic():
    rng = np.random.default_rng(5)
    dist = count_patterns(rng.standard_normal(13550), order=5)
    assert dist.windows == 2710
    assert dist.dropped_points == 0


def test_count_dropped_tail():
    dist = count_patterns(np.arange(12, dtype=float), order=5)
    assert dist.windows == 2
    assert dist.dropped_points == 2


def test_count_requires_full_window():
    with pytest.raises(InvalidInputError):
        count_patterns(np.arange(4, dtype=float), order=5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_counting_rejects_non_finite_values(bad):
    values = np.arange(10, dtype=float)
    values[7] = bad
    with pytest.raises(InvalidInputError, match="series contains non-finite values"):
        count_patterns(values, order=5)
    with pytest.raises(InvalidInputError, match="windows contain non-finite values"):
        count_windows(values.reshape(2, 5))


def test_count_reports_ties():
    values = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    dist = count_patterns(values, order=5)
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
    dist = count_patterns(values, order=4)
    ids, _ = _oracle_ids_and_ties(values.reshape(100, 4))
    assert np.array_equal(dist.counts, np.bincount(np.asarray(ids) - 1, minlength=24))


@pytest.mark.parametrize("order", [2, 3, 5, 7])
def test_block_counting_of_tied_data_matches_a_window_loop(order):
    values = np.random.default_rng(order).integers(0, 3, size=103).astype(float)
    dist = count_patterns(values, order=order)
    starts = range(0, values.size - order + 1, order)
    ids, ties = _oracle_ids_and_ties(np.array([values[start : start + order] for start in starts]))
    expected = np.bincount(np.asarray(ids) - 1, minlength=math.factorial(order))
    assert np.array_equal(dist.counts, expected)
    assert dist.ties_observed == sum(ties) > 0
    assert dist.dropped_points == values.size - (starts[-1] + order) > 0


def _oracle_ids_and_ties(windows):
    """Stable argsort and enumeration rank per window; a tie is a repeated value."""
    order = windows.shape[1]
    digits = np.argsort(windows, axis=1, kind="stable").tolist()
    ids = [lexicographic_rank(row, order) for row in digits]
    return ids, [np.unique(w).size < w.size for w in windows]


@pytest.mark.parametrize("order", range(2, 9))
def test_kernel_ids_of_every_permutation_used_as_values(order):
    windows = np.array(list(permutations(range(order))), dtype=float)
    codes, tied = _pattern_codes(windows)
    digits = np.argsort(windows, axis=1, kind="stable").tolist()
    assert (codes + 1).tolist() == [lexicographic_rank(row, order) for row in digits]
    assert not tied.any()
    assert np.array_equal(count_windows(windows).counts, np.ones(math.factorial(order)))


@pytest.mark.parametrize("order", range(2, 11))
def test_kernel_matches_oracle_on_tied_windows(order):
    # the oracle counts permutations afresh per window above order 8
    n = {9: 6, 10: 2}.get(order, 300)
    rng = np.random.default_rng(order)
    windows = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0, 2.0]), size=(n, order))
    ids, ties = _oracle_ids_and_ties(windows)
    codes, tied = _pattern_codes(windows)
    assert (codes + 1).tolist() == ids
    assert tied.tolist() == ties
    dist = count_windows(windows)
    expected = np.bincount(np.asarray(ids) - 1, minlength=math.factorial(order))
    assert np.array_equal(dist.counts, expected)
    assert dist.ties_observed == sum(ties) > 0


def test_kernel_reads_non_contiguous_windows():
    base = np.random.default_rng(3).integers(0, 4, size=(400, 13)).astype(float)
    windows = base[::3, 1::2]  # (134, 6), contiguous along neither axis
    assert not (windows.flags.c_contiguous or windows.flags.f_contiguous)
    ids, ties = _oracle_ids_and_ties(windows)
    dist = count_windows(windows)
    assert np.array_equal(dist.counts, np.bincount(np.asarray(ids) - 1, minlength=720))
    assert dist.ties_observed == sum(ties) > 0


def test_uniformity_on_iid_noise():
    rng = np.random.default_rng(20240809)
    dist = count_patterns(rng.standard_normal(600_000), order=5)
    n_w = dist.windows
    assert n_w == 120_000
    p = 1.0 / 120.0
    se = math.sqrt(p * (1 - p) / n_w)
    deviations = np.abs(dist.counts / dist.windows - p)
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


def test_families_at_order_two_are_the_complements():
    # Friday is the window's last day, so at order 2 it is day 1
    assert pattern_family(PatternFamily.MONDAY_LARGEST, 2) == {2}  # 10
    assert pattern_family(PatternFamily.MONDAY_WORST_FRIDAY_BEST, 2) == {1}  # 01


def test_family_rejects_a_kind_that_is_not_a_family():
    # a plain string is no PatternFamily, even when it spells one's value
    for lookup in (family_index, family_share):
        with pytest.raises(InvalidInputError, match="^unknown family 'monday-largest'$"):
            lookup("monday-largest", 5)


def test_distribution_rejects_records_that_counting_cannot_make():
    counts = np.ones(6, dtype=np.int64)
    with pytest.raises(InvalidInputError, match=r"^ties_observed 99 outside \[0, 6\]$"):
        PatternDistribution(order=3, counts=counts, ties_observed=99)
    with pytest.raises(InvalidInputError, match=r"^ties_observed -1 outside \[0, 6\]$"):
        PatternDistribution(order=3, counts=counts, ties_observed=-1)
    with pytest.raises(InvalidInputError, match="^dropped_points must be non-negative, got -4$"):
        PatternDistribution(order=3, counts=counts, dropped_points=-4)
    # every window may hold a tie
    assert PatternDistribution(order=3, counts=counts, ties_observed=6, dropped_points=2).windows == 6


def test_counting_takes_only_a_whole_order():
    values = np.arange(50, dtype=float)
    with pytest.raises(InvalidInputError, match=r"^order must be a whole number, got 5\.9$"):
        count_patterns(values, order=5.9)
    assert count_patterns(values, order=5.0).order == 5
    assert count_patterns(values, order=np.int64(5)).windows == 10
    with pytest.raises(InvalidInputError, match="^order must be in 2..10, got 11$"):
        count_patterns(values, order=11)


def test_distribution_takes_only_a_whole_order():
    with pytest.raises(InvalidInputError, match=r"^order must be a whole number, got 3\.7$"):
        PatternDistribution(order=3.7, counts=np.ones(6, dtype=np.int64))
    assert type(PatternDistribution(order=3.0, counts=np.ones(6, dtype=np.int64)).order) is int


def test_family_share_takes_only_a_whole_order():
    with pytest.raises(InvalidInputError, match=r"^order must be a whole number, got 4\.5$"):
        family_share(PatternFamily.MONDAY_LARGEST, 4.5)
    assert family_share(PatternFamily.MONDAY_LARGEST, 4.0) == 0.25
