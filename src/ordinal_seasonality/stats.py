"""Seasonality hypothesis tests on ordinal-pattern counts.

Five null hypotheses are covered: uniformity over all D! patterns (H1),
uniformity of each day across rank positions (H2), uniformity of each rank
position across days (H3), and two binomial tests on named pattern
families, Monday-best (H4) and Monday-worst-with-Friday-best (H5).

The tests take plain data: H1, H4 and H5 read a
:class:`~ordinal_seasonality.patterns.PatternDistribution`, H2 and H3 the
(D, D) int64 array of :func:`position_matrix`, H2 its rows and H3 its
columns through one body.  H4 and H5 share one body too, with the
family's uniform share (:func:`~ordinal_seasonality.patterns.family_share`)
as the expected frequency of :func:`binomial_test`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, whole_number
from .patterns import (
    PatternDistribution,
    PatternFamily,
    family_index,
    family_share,
    pattern_family,
    position_counts,
)

SIGNIFICANCE_LEVELS = (0.10, 0.05, 0.01)

# below this expected count per cell the chi-squared approximation degrades
EXPECTED_FREQUENCY_FLOOR = 5.0

_EPS = sys.float_info.epsilon


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    This is Q(a, y), the regularized upper incomplete gamma function at
    a = df/2 and y = x/2, in a closed form for integer and half-integer a
    (DLMF §8.4 and §8.7):

    - y < a: 1 - P(a, y), with P from the lower series
      e^{-y} y^a / Gamma(a+1) * sum_n y^n / ((a+1)...(a+n)).
    - y >= a: the finite sum e^{-y} sum_k y^k / Gamma(k+1) over the shapes
      k = a-1, a-2, ... down to 0 or 1/2, plus erfc(sqrt(y)) for odd df.

    Each sum runs from its largest term and stops once a term is below
    machine epsilon times the sum. The error is the rounding of the one
    ``lgamma`` prefactor, so it grows with df: the absolute difference
    from ``scipy.special.gammaincc`` is below 2e-14 for df <= 119, 2e-12
    at df = 5039, 2e-11 at 40319 and 3e-9 at 10!-1. x = inf gives 0.0;
    nan is rejected, and so is a df that is not a whole number.
    """
    x = float(x)
    if math.isnan(x):
        raise InvalidInputError("chi-squared statistic must not be nan")
    if x < 0:
        raise InvalidInputError("chi-squared statistic must be non-negative")
    df = whole_number(df, "degrees of freedom")
    if df < 1:
        raise InvalidInputError("degrees of freedom must be >= 1")
    if x == math.inf:
        return 0.0
    a, y = df / 2.0, x / 2.0
    if df == 1:
        return math.erfc(math.sqrt(y))
    if y < a:
        if y == 0.0:
            return 1.0
        term = total = 1.0
        shape = a
        while term > _EPS * total:
            shape += 1.0
            term *= y / shape
            total += term
        return 1.0 - total * math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
    shape = a - 1.0
    term = total = math.exp(shape * math.log(y) - y - math.lgamma(a))
    while shape >= 1.0 and term > _EPS * total:
        term *= shape / y
        total += term
        shape -= 1.0
    if df % 2:
        total += math.erfc(math.sqrt(y))
    return total


def normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal, 1 - Phi(z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class TestOutcome:
    """Result of one hypothesis test, which rejects at each of :data:`SIGNIFICANCE_LEVELS` above ``p_value``."""

    statistic: float
    df: int | None
    p_value: float
    observed: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidInputError(f"p-value {self.p_value} outside [0, 1]")


def position_matrix(dist: PatternDistribution) -> np.ndarray:
    """Day-by-position counts of a pattern distribution, an int64 (D, D) array.

    Cell ``(i, j)`` counts the windows in which day ``i`` holds rank
    position ``j``, so every row and column sums to ``dist.windows``.
    """
    return position_counts(dist.counts, dist.order).astype(np.int64)


def _pearson(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson Q of each row of float counts against the row's mean, and that mean.

    Works along the last axis.  A row of a C-contiguous block reduces
    exactly as the same row on its own, so Q is the same bit for bit
    whether the rows come one at a time or all at once.
    """
    if obs.shape[-1] < 2:
        raise InvalidInputError("need at least two observed counts")
    if (obs < 0).any():
        raise InvalidInputError("observed counts must be non-negative")
    expected = obs.sum(axis=-1, keepdims=True) / obs.shape[-1]
    if (expected <= 0).any():
        raise InvalidInputError("total observed count must be positive")
    return ((obs - expected) ** 2 / expected).sum(axis=-1), expected[..., 0]


def chi2_statistic(observed) -> float:
    """Pearson Q against a uniform expectation over the observed cells."""
    obs = np.asarray(observed, dtype=float)
    if obs.ndim != 1:
        raise InvalidInputError("observed counts must be one-dimensional")
    return float(_pearson(obs)[0])


def _chi2_outcomes(lines: np.ndarray, payloads: list[dict]) -> list[TestOutcome]:
    """One chi-squared test of uniformity per row of a count matrix (df = cells - 1)."""
    q, expected = _pearson(np.ascontiguousarray(lines, dtype=float))
    df = lines.shape[1] - 1
    outcomes = []
    for q_i, e, payload in zip(q.tolist(), expected.tolist(), payloads):
        payload = {**payload, "expected_frequency": e, "low_expected_frequency": e < EXPECTED_FREQUENCY_FLOOR}
        outcomes.append(TestOutcome(q_i, df, chi2_sf(q_i, df), payload))
    return outcomes


def test_h1_pattern_uniformity(dist: PatternDistribution) -> TestOutcome:
    """H1: every pattern appears equally often (df = D! - 1)."""
    payload = {"kind": "pattern-uniformity", "windows": dist.windows}
    return _chi2_outcomes(dist.counts[None, :], [payload])[0]


def _line_tests(lines: np.ndarray, kind: str, key: str) -> list[TestOutcome]:
    """One chi-squared test per row of a square count matrix (df = D - 1), all rows at once."""
    if lines.ndim != 2 or lines.shape[0] != lines.shape[1]:
        raise InvalidInputError("position matrix must be square")
    payloads = [{"kind": kind, key: i, "counts": line} for i, line in enumerate(lines.tolist())]
    return _chi2_outcomes(lines, payloads)


def test_h2_day_rows(matrix) -> list[TestOutcome]:
    """H2: in each row of the (D, D) position matrix, every rank position is equally likely (df = D - 1)."""
    return _line_tests(np.asarray(matrix), "day-row", "day")


def test_h3_position_columns(matrix) -> list[TestOutcome]:
    """H3: in each column of the (D, D) position matrix, every day is equally likely (df = D - 1)."""
    return _line_tests(np.asarray(matrix).T, "position-column", "position")


@lru_cache(maxsize=8)
def _binomial_pmf(weeks: int, p_e: float) -> np.ndarray:
    """Binomial(weeks, p_e) probabilities of the counts 0..weeks, as a read-only array.

    Sums the log ratios of neighbouring terms outward from the mode and
    normalises the terms by their total, so no term carries the rounding
    of a large ``lgamma``.  Cached: every replication of a run shares it.
    """
    mode = int((weeks + 1) * p_e)
    # log pmf(k + 1) / pmf(k) = log((W - k) / (k + 1) * p_e / (1 - p_e)) for k = 0..W-1
    step = np.log(np.arange(weeks, 0, -1) / np.arange(1.0, weeks + 1) * (p_e / (1.0 - p_e)))
    pmf = np.exp(np.concatenate([-np.cumsum(step[:mode][::-1])[::-1], [0.0], np.cumsum(step[mode:])]))
    pmf /= pmf.sum()
    pmf.flags.writeable = False
    return pmf


@lru_cache(maxsize=4096)
def _binomial_p_value(weeks: int, p_e: float, count: float) -> float:
    """Binomial(weeks, p_e) mass of the counts no likelier than ``count``.

    Cached: the table scan is O(weeks), and the replications of a run see
    the same few hundred family counts over and over.
    """
    # both sums commute, so at p_e = 1/2 the counts k and W - k get the same bits (order 2's H4 and H5)
    log_likelihood = math.lgamma(weeks + 1) - (math.lgamma(count + 1) + math.lgamma(weeks - count + 1))
    log_likelihood += count * math.log(p_e) + (weeks - count) * math.log(1.0 - p_e)
    pmf = _binomial_pmf(weeks, p_e)
    return min(1.0, float(pmf[pmf <= math.exp(log_likelihood) * (1.0 + 1e-7)].sum()))


def binomial_test(p_e: float, count: float, weeks: int, payload: dict | None = None) -> TestOutcome:
    """Two-sided exact binomial test of a family ``count`` over ``weeks`` weeks.

    The p-value is the Binomial(weeks, p_e) mass of the counts no likelier
    than ``count``, which may be a non-integer mean: the "minlike" rule and
    1e-7 tolerance of ``scipy.stats.binomtest``.  The statistic is the
    paper's z = (p_e - p_o) / sqrt(p_o q_o / N) at p_o = count / N, negative
    when p_o exceeds p_e, and +inf or -inf at p_o = 0 or 1.  ``weeks``
    must be a whole number.
    """
    if not 0.0 < p_e < 1.0:
        raise InvalidInputError("expected frequency must lie in (0, 1)")
    weeks = whole_number(weeks, "week count")
    if weeks < 1:
        raise InvalidInputError("week count must be >= 1")
    if not 0.0 <= count <= weeks:  # nan fails too
        raise InvalidInputError(f"family count {count} outside [0, {weeks}]")
    p_e, p_o = float(p_e), float(count / weeks)
    payload = dict(payload or {}, p_e=p_e, p_o=p_o, weeks=weeks)
    z = ((p_e - p_o) / math.sqrt(p_o * (1.0 - p_o) / weeks) if 0.0 < p_o < 1.0
         else math.copysign(math.inf, p_e - p_o))
    p_value = _binomial_p_value(weeks, p_e, float(count))
    return TestOutcome(z, None, p_value, payload)


def _family_test(dist: PatternDistribution, kind: PatternFamily) -> TestOutcome:
    count = int(dist.counts[family_index(kind, dist.order)].sum())
    # read through this module's name, which bench/tracer.py wraps as the patterns.family span
    size = len(pattern_family(kind, dist.order))
    payload = {"kind": kind.value, "family_size": size, "family_count": count}
    return binomial_test(family_share(kind, dist.order), count, dist.windows, payload)


def test_h4_monday_largest(dist: PatternDistribution) -> TestOutcome:
    """H4: Monday-best patterns hold their uniform share (D-1)!/D! of weeks."""
    return _family_test(dist, PatternFamily.MONDAY_LARGEST)


def test_h5_monday_worst_friday_best(dist: PatternDistribution) -> TestOutcome:
    """H5: Monday-worst/Friday-best patterns hold share (D-2)!/D! of weeks."""
    return _family_test(dist, PatternFamily.MONDAY_WORST_FRIDAY_BEST)
