"""Seasonality hypothesis tests on ordinal-pattern counts.

Five null hypotheses are covered: uniformity over all D! patterns (H1),
uniformity of each day across rank positions (H2), uniformity of each rank
position across days (H3), and two binomial tests on named pattern
families, Monday-best (H4) and Monday-worst-with-Friday-best (H5).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrequencyError, InvalidInputError
from .patterns import (
    LowExpectedFrequencyWarning,
    PatternDistribution,
    PatternFamily,
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
    nan is rejected.
    """
    x = float(x)
    if math.isnan(x):
        raise InvalidInputError("chi-squared statistic must not be nan")
    if x < 0:
        raise InvalidInputError("chi-squared statistic must be non-negative")
    df = int(df)
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
    """Result of one hypothesis test with decisions at the 10/5/1% levels."""

    statistic: float
    df: int | None
    p_value: float
    reject_10: bool
    reject_05: bool
    reject_01: bool
    observed: dict = field(default_factory=dict)

    @classmethod
    def from_p(cls, statistic: float, df: int | None, p_value: float, observed: dict) -> "TestOutcome":
        p_value = float(p_value)
        if not 0.0 <= p_value <= 1.0:
            raise InvalidInputError(f"p-value {p_value} outside [0, 1]")
        return cls(
            statistic=float(statistic),
            df=df,
            p_value=p_value,
            reject_10=p_value < 0.10,
            reject_05=p_value < 0.05,
            reject_01=p_value < 0.01,
            observed=observed,
        )

    def stars(self) -> str:
        """Significance stars: * 10%, ** 5%, *** 1%."""
        if self.reject_01:
            return "***"
        if self.reject_05:
            return "**"
        if self.reject_10:
            return "*"
        return ""


@dataclass
class PositionMatrix:
    """D x D counts of day i holding rank position j over all weeks."""

    a: np.ndarray
    weeks: int

    def __post_init__(self) -> None:
        a = np.asarray(self.a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError("position matrix must be square")
        if (a < 0).any():
            raise InvalidInputError("position matrix entries must be non-negative")
        self.weeks = int(self.weeks)
        if not np.all(a.sum(axis=0) == self.weeks) or not np.all(a.sum(axis=1) == self.weeks):
            raise InvalidInputError("every row and column must sum to the week count")
        self.a = a.astype(np.int64)

    @property
    def order(self) -> int:
        return self.a.shape[0]


def position_matrix(dist: PatternDistribution) -> PositionMatrix:
    """Day-by-position frequency matrix of a pattern distribution."""
    return PositionMatrix(a=position_counts(dist.counts, dist.order), weeks=dist.windows)


def chi2_statistic(observed) -> float:
    """Pearson Q against a uniform expectation over the observed cells."""
    obs = np.asarray(observed, dtype=float)
    if obs.ndim != 1 or obs.size < 2:
        raise InvalidInputError("need at least two observed counts")
    if (obs < 0).any():
        raise InvalidInputError("observed counts must be non-negative")
    total = obs.sum()
    if total <= 0:
        raise InvalidInputError("total observed count must be positive")
    expected = total / obs.size
    return float(((obs - expected) ** 2 / expected).sum())


def _chi2_outcome(observed, df: int, observed_payload: dict) -> TestOutcome:
    obs = np.asarray(observed, dtype=float)
    q = chi2_statistic(obs)
    expected = obs.sum() / obs.size
    if expected < EXPECTED_FREQUENCY_FLOOR:
        warnings.warn(
            f"expected frequency {expected:.2f} per cell is below "
            f"{EXPECTED_FREQUENCY_FLOOR:g}; chi-squared p-values are approximate",
            LowExpectedFrequencyWarning,
            stacklevel=3,
        )
    payload = dict(observed_payload)
    payload["expected_frequency"] = float(expected)
    payload["low_expected_frequency"] = bool(expected < EXPECTED_FREQUENCY_FLOOR)
    return TestOutcome.from_p(q, df, chi2_sf(q, df), payload)


def test_h1_pattern_uniformity(dist: PatternDistribution) -> TestOutcome:
    """H1: every pattern appears equally often (df = D! - 1)."""
    if dist.windows <= 0:
        raise InvalidInputError("distribution has no windows")
    return _chi2_outcome(
        dist.counts,
        df=dist.counts.size - 1,
        observed_payload={"kind": "pattern-uniformity", "windows": dist.windows},
    )


def test_h2_day_rows(matrix: PositionMatrix) -> list[TestOutcome]:
    """H2: each day occupies every rank position equally often (df = D - 1)."""
    outcomes = []
    for i in range(matrix.order):
        outcomes.append(
            _chi2_outcome(
                matrix.a[i, :],
                df=matrix.order - 1,
                observed_payload={"kind": "day-row", "day": i, "counts": matrix.a[i, :].tolist()},
            )
        )
    return outcomes


def test_h3_position_columns(matrix: PositionMatrix) -> list[TestOutcome]:
    """H3: each rank position is occupied by every day equally often (df = D - 1)."""
    outcomes = []
    for j in range(matrix.order):
        outcomes.append(
            _chi2_outcome(
                matrix.a[:, j],
                df=matrix.order - 1,
                observed_payload={
                    "kind": "position-column",
                    "position": j,
                    "counts": matrix.a[:, j].tolist(),
                },
            )
        )
    return outcomes


@dataclass(frozen=True)
class BinomialTestInput:
    """Inputs of the normal-approximated binomial test."""

    p_e: float
    p_o: float
    weeks: int

    def __post_init__(self) -> None:
        if not 0.0 < self.p_e < 1.0:
            raise InvalidInputError("expected frequency must lie in (0, 1)")
        if self.weeks < 1:
            raise InvalidInputError("week count must be >= 1")


def binomial_z(inp: BinomialTestInput) -> float:
    """z = (p_e - p_o) / sqrt(p_o q_o / N): negative when observed exceeds expected."""
    if not 0.0 < inp.p_o < 1.0:
        raise DegenerateFrequencyError(
            f"observed frequency {inp.p_o} leaves the normal approximation undefined"
        )
    q_o = 1.0 - inp.p_o
    return (inp.p_e - inp.p_o) / math.sqrt(inp.p_o * q_o / inp.weeks)


def binomial_test(p_e: float, p_o: float, weeks: int, payload: dict | None = None) -> TestOutcome:
    """Two-sided binomial test of an observed frequency via the z statistic.

    Degenerate observed frequencies (0 or 1), where the z denominator
    vanishes, fall back to the exact all-or-nothing binomial tail and are
    flagged in the payload.
    """
    if weeks < 1:
        raise InvalidInputError("week count must be >= 1")
    payload = dict(payload or {})
    payload.update(
        {
            "p_e": float(p_e),
            "p_o": float(p_o),
            "q_o": float(1.0 - p_o),
            "weeks": int(weeks),
        }
    )
    try:
        z = binomial_z(BinomialTestInput(p_e=p_e, p_o=p_o, weeks=weeks))
    except DegenerateFrequencyError:
        if p_o <= 0.0:
            tail = (1.0 - p_e) ** weeks
            statistic = math.inf  # maximal under-representation
        else:
            tail = p_e**weeks
            statistic = -math.inf
        payload["degenerate"] = True
        payload["exact_tail"] = float(tail)
        return TestOutcome.from_p(statistic, None, min(1.0, 2.0 * tail), payload)

    payload["degenerate"] = False
    payload["p_upper_tail"] = normal_sf(z)
    payload["p_lower_tail"] = normal_sf(-z)
    return TestOutcome.from_p(z, None, 2.0 * normal_sf(abs(z)), payload)


def _binomial_outcome(p_e: float, family_count: int, weeks: int, payload: dict) -> TestOutcome:
    if weeks < 1:
        raise InvalidInputError("week count must be >= 1")
    payload = dict(payload)
    payload["family_count"] = int(family_count)
    return binomial_test(p_e, family_count / weeks, weeks, payload)


def test_h4_monday_largest(dist: PatternDistribution) -> TestOutcome:
    """H4: Monday-best patterns hold their uniform share (D-1)!/D! of weeks."""
    family = pattern_family(PatternFamily.MONDAY_LARGEST, dist.order)
    p_e = 1.0 / dist.order
    return _binomial_outcome(
        p_e,
        dist.family_count(family),
        dist.windows,
        {"kind": "monday-largest", "family_size": len(family)},
    )


def test_h5_monday_worst_friday_best(dist: PatternDistribution) -> TestOutcome:
    """H5: Monday-worst/Friday-best patterns hold share (D-2)!/D! of weeks."""
    family = pattern_family(PatternFamily.MONDAY_WORST_FRIDAY_BEST, dist.order)
    p_e = 1.0 / (dist.order * (dist.order - 1))
    return _binomial_outcome(
        p_e,
        dist.family_count(family),
        dist.windows,
        {"kind": "monday-worst-friday-best", "family_size": len(family)},
    )
