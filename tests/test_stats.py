import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammainccinv
from scipy.stats import binomtest

import ordinal_seasonality

from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.patterns import PatternDistribution, PatternFamily, family_share, pattern_family
from ordinal_seasonality.stats import (
    _binomial_p_value,
    binomial_test,
    chi2_sf,
    chi2_statistic,
    normal_sf,
    position_matrix,
)
from ordinal_seasonality.stats import test_h1_pattern_uniformity as h1_test
from ordinal_seasonality.stats import test_h2_day_rows as h2_test
from ordinal_seasonality.stats import test_h3_position_columns as h3_test
from ordinal_seasonality.stats import test_h4_monday_largest as h4_test
from ordinal_seasonality.stats import test_h5_monday_worst_friday_best as h5_test
from oracles import chi2_sf_quadrature, normal_sf_quadrature


def _dist_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return PatternDistribution(order=5, counts=counts)


def _identity_only_dist(weeks):
    counts = np.zeros(120, dtype=np.int64)
    counts[0] = weeks
    return _dist_from_counts(counts)


# ---------------------------------------------------------------------------
# position matrix
# ---------------------------------------------------------------------------


def test_position_matrix_identity_pattern():
    matrix = position_matrix(_identity_only_dist(3))
    assert matrix.dtype == np.int64
    assert np.array_equal(matrix, 3 * np.eye(5, dtype=int))


def test_position_matrix_reversal_pattern():
    counts = np.zeros(120, dtype=np.int64)
    counts[119] = 2  # pattern 43210
    matrix = position_matrix(_dist_from_counts(counts))
    assert np.array_equal(matrix, 2 * np.fliplr(np.eye(5, dtype=int)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_position_matrix_row_and_column_sums(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 40, size=120)
    counts[rng.integers(0, 120)] += 1  # ensure at least one window
    dist = _dist_from_counts(counts)
    matrix = position_matrix(dist)
    assert (matrix.sum(axis=0) == dist.windows).all()
    assert (matrix.sum(axis=1) == dist.windows).all()


# ---------------------------------------------------------------------------
# chi-squared statistic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "observed, expected_q",
    [
        ((637, 503, 537, 501, 532), 22.78967),
        ((637, 557, 479, 570, 467), 36.21402),
        ((506, 469, 501, 484, 480), 1.91393),
    ],
)
def test_q_statistic_reference_values(observed, expected_q):
    assert chi2_statistic(observed) == pytest.approx(expected_q, abs=1e-5)


def test_q_uniform_counts_is_zero():
    assert chi2_statistic((10, 10, 10, 10, 10)) == 0.0


def test_q_errors():
    with pytest.raises(InvalidInputError):
        chi2_statistic((0, 0, 0))
    with pytest.raises(InvalidInputError):
        chi2_statistic((5,))
    with pytest.raises(InvalidInputError, match="^observed counts must be one-dimensional$"):
        chi2_statistic([[10, 12], [11, 9]])


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=20))
def test_q_properties(observed):
    if sum(observed) == 0:
        return
    q = chi2_statistic(observed)
    assert q >= 0.0
    assert (q == 0.0) == (len(set(observed)) == 1)
    rng = np.random.default_rng(1)
    shuffled = rng.permutation(observed)
    assert chi2_statistic(shuffled) == pytest.approx(q, rel=1e-12)


# ---------------------------------------------------------------------------
# H1, H2, H3
# ---------------------------------------------------------------------------


def test_h1_uniform_counts():
    outcome = h1_test(_dist_from_counts([10] * 120))
    assert outcome.statistic == 0.0
    assert outcome.p_value == pytest.approx(1.0)
    assert outcome.df == 119


def test_h1_rejects_a_distribution_without_windows():
    with pytest.raises(InvalidInputError, match="^total observed count must be positive$"):
        h1_test(_dist_from_counts([0] * 120))


def test_h1_small_bump_not_rejected():
    counts = np.full(120, 10, dtype=np.int64)
    counts[0] = 20
    counts[1] = 0
    outcome = h1_test(_dist_from_counts(counts))
    assert outcome.statistic == pytest.approx(20.0)
    assert outcome.df == 119
    assert outcome.p_value >= 0.10


def test_h2_identity_rows():
    outcomes = h2_test(position_matrix(_identity_only_dist(3)))
    for outcome in outcomes:
        assert outcome.statistic == pytest.approx(12.0)
        assert outcome.df == 4


def test_h3_identity_columns():
    outcomes = h3_test(position_matrix(_identity_only_dist(3)))
    for outcome in outcomes:
        assert outcome.statistic == pytest.approx(12.0)
        assert outcome.df == 4


def test_h2_flags_below_expected_frequency_floor():
    outcomes = h2_test(position_matrix(_identity_only_dist(3)))
    assert len(outcomes) == 5
    assert all(outcome.observed["low_expected_frequency"] for outcome in outcomes)


@pytest.mark.parametrize("test", [h2_test, h3_test])
@pytest.mark.parametrize("matrix", [np.ones((5, 4), dtype=np.int64), np.ones(5), np.ones((2, 2, 2))])
def test_line_tests_reject_non_square_matrix(test, matrix):
    with pytest.raises(InvalidInputError, match="square"):
        test(matrix)


@pytest.mark.parametrize("order", range(2, 11))
def test_line_tests_equal_one_line_at_a_time_bit_for_bit(order):
    # the lines are tested as one block; each Q must equal chi2_statistic of that line alone,
    # also from D = 8 on, where numpy sums a line pairwise rather than left to right
    rng = np.random.default_rng(order)
    for matrix in (rng.integers(1, 900, size=(order, order)), rng.random((order, order)) * 50 + 0.1):
        rows, columns = h2_test(matrix), h3_test(matrix)
        for i in range(order):
            assert rows[i].statistic == chi2_statistic(matrix[i, :])
            assert columns[i].statistic == chi2_statistic(matrix[:, i])
            assert rows[i].observed["expected_frequency"] == matrix[i, :].astype(float).sum() / order
    counts = rng.integers(0, 40, size=math.factorial(min(order, 8)))
    dist = PatternDistribution(order=min(order, 8), counts=counts)
    assert h1_test(dist).statistic == chi2_statistic(counts)


def test_line_tests_reject_negative_and_empty_lines():
    with pytest.raises(InvalidInputError, match="non-negative"):
        h2_test(np.array([[3, -1], [1, 1]]))
    with pytest.raises(InvalidInputError, match="positive"):
        h3_test(np.array([[0, 2], [0, 2]]))


def test_outcome_decision_monotonicity_property():
    from ordinal_seasonality.cli import _outcome_dict
    from ordinal_seasonality.stats import TestOutcome

    rng = np.random.default_rng(7)
    for _ in range(200):
        counts = rng.integers(0, 60, size=5) + 1
        q = chi2_statistic(counts)
        doc = _outcome_dict(TestOutcome(q, 4, chi2_sf(q, 4), {}))
        assert doc["reject_01"] <= doc["reject_05"] <= doc["reject_10"]
        assert len(doc["stars"]) == doc["reject_10"] + doc["reject_05"] + doc["reject_01"]


@pytest.mark.parametrize("p_value", [-0.1, 1.5, math.nan])
def test_outcome_rejects_a_p_value_outside_the_unit_interval(p_value):
    from ordinal_seasonality.stats import TestOutcome

    with pytest.raises(InvalidInputError, match="outside \\[0, 1\\]$"):
        TestOutcome(1.0, 4, p_value)


# ---------------------------------------------------------------------------
# binomial test
# ---------------------------------------------------------------------------


def test_binomial_z_zero_when_matched():
    assert binomial_test(0.2, 20, 100).statistic == 0.0


def test_binomial_z_derived_value():
    z = binomial_test(0.05, 25, 400).statistic
    assert z == pytest.approx(-1.0327955589886442, abs=1e-5)


def test_binomial_z_sign_convention():
    # under-representation (observed below expected) gives positive z
    z = binomial_test(0.2, 377, 2000).statistic
    assert z > 0


def _binomtest_cases():
    rng = np.random.default_rng(24)
    for weeks in (1, 2, 3, 10, 50, 400, 2710, 40_000, 200_000):
        for p_e in (1 / 2, 1 / 5, 1 / 20, 1 / 90):
            mode = int((weeks + 1) * p_e)
            for count in {0, weeks, mode, min(mode + 1, weeks), *rng.integers(0, weeks + 1, 8).tolist()}:
                yield p_e, count, weeks
    yield 0.2, 1500, 5000  # far upper tail, p about 3e-63


def test_binomial_p_value_matches_binomtest():
    for p_e, count, weeks in _binomtest_cases():
        reference = binomtest(count, weeks, p_e).pvalue
        if reference > 1e-250:
            p_value = binomial_test(p_e, count, weeks).p_value
            assert p_value == pytest.approx(reference, rel=1e-11, abs=0.0), (p_e, count, weeks)


def test_binomial_p_value_cache_keys_on_weeks_share_and_count():
    # cached per (weeks, p_e, count): equal counts given as int, float or int64 share an entry
    uncached = _binomial_p_value.__wrapped__
    _binomial_p_value.cache_clear()
    for weeks in (1, 400, 2710):
        for count in range(0, weeks + 1, max(1, weeks // 50)):
            for p_e in (1 / 5, 1 / 20):
                expected = uncached(weeks, p_e, float(count))
                for given in (count, float(count), np.int64(count)):
                    assert binomial_test(p_e, given, weeks).p_value == expected, (weeks, p_e, given)
    assert _binomial_p_value.cache_info().hits > 0


def test_binomial_mean_count_lies_between_its_neighbours():
    # a mean count is read at its own likelihood: 25.5 of 100 lies between 25 and 26
    p_26, p_mean, p_25 = (binomial_test(0.2, count, 100).p_value for count in (26, 25.5, 25))
    assert p_26 < p_mean < p_25


def test_binomial_z_is_infinite_at_zero_and_full_counts():
    empty = binomial_test(0.2, 0, 10)
    assert empty.statistic == math.inf
    assert empty.p_value == pytest.approx(binomtest(0, 10, 0.2).pvalue, rel=1e-12)
    full = binomial_test(0.2, 10, 10)
    assert full.statistic == -math.inf
    assert full.p_value == pytest.approx(binomtest(10, 10, 0.2).pvalue, rel=1e-12)
    for outcome in (empty, full, binomial_test(0.2, 5, 10)):
        assert set(outcome.observed) == {"p_e", "p_o", "weeks"}


@pytest.mark.parametrize("count", [-1, 11, math.nan, math.inf])
def test_binomial_rejects_impossible_observed_frequency(count):
    with pytest.raises(InvalidInputError, match="family count"):
        binomial_test(0.2, count, 10)


@pytest.mark.parametrize(("p_e", "weeks"), [(0.0, 10), (1.0, 10), (math.nan, 10), (0.2, 0)])
def test_binomial_rejects_bad_expected_frequency_and_weeks(p_e, weeks):
    with pytest.raises(InvalidInputError):
        binomial_test(p_e, 5, weeks)


@pytest.mark.parametrize("order", range(2, 9))
def test_family_share_is_the_closed_form(order):
    # the H4/H5 p_e leaves of every report rest on these exact doubles
    assert family_share(PatternFamily.MONDAY_LARGEST, order) == 1.0 / order
    assert family_share(PatternFamily.MONDAY_WORST_FRIDAY_BEST, order) == 1.0 / (order * (order - 1))
    for kind in PatternFamily:
        assert family_share(kind, order) == len(pattern_family(kind, order)) / math.factorial(order)


@pytest.mark.parametrize("order", [1, 11])
def test_family_share_rejects_orders_without_families(order):
    with pytest.raises(InvalidInputError):
        family_share(PatternFamily.MONDAY_LARGEST, order)


def test_h4_exact_share_gives_zero():
    counts = np.zeros(120, dtype=np.int64)
    counts[33] = 20  # pattern 34 is in the Monday-largest family
    counts[0] = 80
    outcome = h4_test(_dist_from_counts(counts))
    assert outcome.statistic == 0.0
    assert outcome.p_value == pytest.approx(1.0)


def test_h4_derived_z():
    # family share 0.25 over 2000 windows
    counts = np.zeros(120, dtype=np.int64)
    counts[33] = 500
    counts[0] = 1500
    outcome = h4_test(_dist_from_counts(counts))
    assert outcome.statistic == pytest.approx(-5.1639777949432215, abs=1e-5)
    assert outcome.p_value < 0.01


def test_h4_degenerate_zero_family_count():
    counts = np.zeros(120, dtype=np.int64)
    counts[0] = 50  # no Monday-largest weeks at all
    outcome = h4_test(_dist_from_counts(counts))
    assert "degenerate" not in outcome.observed
    assert outcome.statistic == math.inf
    # the exact two-sided tail, not the doubled one-sided 2 * 0.8**50 = 2.8545e-05
    assert outcome.p_value == pytest.approx(binomtest(0, 50, 0.2).pvalue, rel=1e-12)
    assert outcome.p_value == pytest.approx(2.2531e-05, abs=1e-9)


def test_h5_exact_share_gives_zero():
    counts = np.zeros(120, dtype=np.int64)
    counts[0] = 5  # pattern 1 is in the Monday-worst-Friday-best family
    counts[119] = 95
    outcome = h5_test(_dist_from_counts(counts))
    assert outcome.statistic == 0.0


# ---------------------------------------------------------------------------
# special functions vs quadrature oracle
# ---------------------------------------------------------------------------


def test_chi2_sf_trivia():
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(4.60517, 2) == pytest.approx(0.1, abs=1e-5)
    assert chi2_sf(9.48773, 4) == pytest.approx(0.05, abs=1e-5)
    assert chi2_sf(157.8, 119) == pytest.approx(0.01, abs=2e-3)


def test_chi2_sf_rejects_negative():
    with pytest.raises(InvalidInputError):
        chi2_sf(-1.0, 4)


def test_chi2_sf_edge_inputs():
    for df in (1, 4, 119):
        assert chi2_sf(math.inf, df) == 0.0
        assert chi2_sf(1e-300, df) == 1.0
    with pytest.raises(InvalidInputError):
        chi2_sf(math.nan, 4)


def test_p_value_monotone_in_statistic():
    for df in (1, 4, 119, 40319):
        values = [chi2_sf(x, df) for x in np.linspace(0.0, max(300.0, df + 6.0 * math.sqrt(2.0 * df)), 400)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        # strictly decreasing wherever the tail is representably below 1
        interior = [v for v in values if 1e-12 < v < 1.0 - 1e-12]
        assert len(interior) > 20
        assert all(b < a for a, b in zip(interior, interior[1:]))


@pytest.mark.parametrize("df", [1, 2, 4, 10, 119])
def test_chi2_sf_matches_quadrature_oracle(df):
    for x in (0.3, 1.0, 2.5, 5.0, 9.48773, 20.0, 50.0, 119.0, 157.8, 250.0, 500.0):
        assert chi2_sf(x, df) == pytest.approx(chi2_sf_quadrature(x, df), abs=1e-6)


# df = D! - 1 for orders 2..10, plus the small dfs of H2/H3
@pytest.mark.parametrize("df", [*range(1, 11), 23, 119, 719, 5039, 40319, 362879, 3628799])
def test_chi2_sf_matches_gammaincc(df):
    spread = 6.0 * math.sqrt(2.0 * df)
    xs = np.concatenate(
        [
            np.linspace(0.0, 5000.0, 201),
            np.linspace(max(0.0, df - spread), df + spread, 201),
            [1e-300, 1e-10, float(df), math.nextafter(float(df), 0.0)],
            # upper tails down to 1e-300
            2.0 * gammainccinv(df / 2.0, 10.0 ** -np.arange(20.0, 301.0, 20.0)),
        ]
    )
    worst = max(abs(chi2_sf(x, df) - gammaincc(df / 2.0, x / 2.0)) for x in xs)
    assert worst <= (1e-12 if df <= 1000 else 1e-8)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, ordinal_seasonality.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    root = str(Path(ordinal_seasonality.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_normal_sf_trivia():
    assert normal_sf(0.0) == 0.5
    assert normal_sf(1.64485) == pytest.approx(0.05, abs=1e-5)
    for z in (-3.0, -1.2, 0.4, 2.5):
        assert normal_sf(-z) == pytest.approx(1.0 - normal_sf(z), abs=1e-12)


def test_normal_sf_matches_quadrature_oracle():
    for z in (-8.0, -4.0, -1.64485, 0.0, 0.5, 1.64485, 3.0, 6.0, 8.0):
        assert normal_sf(z) == pytest.approx(normal_sf_quadrature(z), abs=1e-6)


# ---------------------------------------------------------------------------
# shuffled surrogates carry no seasonality signal
# ---------------------------------------------------------------------------


def test_shuffles_of_persistent_noise_reject_at_nominal_rate():
    # permuting a strongly persistent series must destroy the pattern
    # preference: H1-H3 rejection rates stay near the 5% nominal size
    from ordinal_seasonality.fgn import FgnConfig, fgn_generate
    from ordinal_seasonality.patterns import count_patterns

    base = fgn_generate(FgnConfig(hurst=0.9, length=10_000, seed=314)).values
    shuffles = 500
    h1_hits = 0
    h2_hits = np.zeros(5, dtype=int)
    h3_hits = np.zeros(5, dtype=int)
    for i in range(shuffles):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=9000, spawn_key=(i,)))
        shuffled = base[rng.permutation(base.size)]
        dist = count_patterns(shuffled, order=5)
        matrix = position_matrix(dist)
        h1_hits += h1_test(dist).p_value < 0.05
        h2_hits += [o.p_value < 0.05 for o in h2_test(matrix)]
        h3_hits += [o.p_value < 0.05 for o in h3_test(matrix)]
    low, high = 0.02 * shuffles, 0.10 * shuffles
    assert low <= h1_hits <= high
    assert ((h2_hits >= low) & (h2_hits <= high)).all()
    assert ((h3_hits >= low) & (h3_hits <= high)).all()


def test_chi2_sf_takes_only_whole_degrees_of_freedom():
    # df = 2.7 was truncated to the df = 2 tail, exp(-1.5)
    with pytest.raises(InvalidInputError, match="^degrees of freedom must be a whole number, got 2.7$"):
        chi2_sf(3.0, 2.7)
    assert chi2_sf(3.0, 2.0) == chi2_sf(3.0, np.int64(2)) == chi2_sf(3.0, 2)


def test_binomial_test_takes_only_whole_week_counts():
    # weeks = 10.5 gave p_o = 3/10.5 beside the p-value and weeks of 10
    with pytest.raises(InvalidInputError, match="^week count must be a whole number, got 10.5$"):
        binomial_test(0.2, 3, 10.5)
    outcomes = [binomial_test(0.2, 3, weeks) for weeks in (10, 10.0, np.int64(10))]
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert type(outcomes[1].observed["weeks"]) is int
