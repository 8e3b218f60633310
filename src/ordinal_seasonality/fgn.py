"""Exact fractional Gaussian noise and the Monte-Carlo replication engine.

Two exact samplers are provided: circulant embedding (Davies-Harte,
O(n log n)) as the default, and the Hosking conditional recursion (O(n^2))
as a fallback when the embedding is not non-negative definite numerically.
Both realize the fGn autocovariance

    gamma(k) = (sigma^2 / 2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

exactly, so covariance properties are testable rather than approximate.

One engine, :func:`run_replications`, repeats the five seasonality tests
over seeded replications, serially or on a process pool.  It drives both
the fGn experiment (:func:`run_ensemble`, the ``simulate`` command) and the
shuffled-surrogate experiment (:func:`shuffle_replication`, the ``shuffle``
command).
"""

from __future__ import annotations

import logging
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .ingest import ReturnSeries
from .patterns import (
    LowExpectedFrequencyWarning,
    PatternDistribution,
    PatternFamily,
    count_patterns,
    pattern_family,
    position_counts,
)
from .stats import (
    SIGNIFICANCE_LEVELS,
    TestOutcome,
    binomial_test,
    chi2_sf,
    chi2_statistic,
    position_matrix,
    test_h1_pattern_uniformity,
    test_h2_day_rows,
    test_h3_position_columns,
    test_h4_monday_largest,
    test_h5_monday_worst_friday_best,
)

log = logging.getLogger(__name__)

# relative tolerance for calling a circulant eigenvalue "negative"
_EIGENVALUE_TOL = 1e-8


@dataclass(frozen=True)
class FgnConfig:
    """One fractional-Gaussian-noise sample: Hurst exponent, length, scale, seed."""

    hurst: float
    length: int
    sigma: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise InvalidInputError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.length < 2:
            raise InvalidInputError("length must be >= 2")
        if self.sigma <= 0:
            raise InvalidInputError("sigma must be positive")


@dataclass(frozen=True)
class EnsembleConfig:
    """Replicated fGn experiment; per-replication seeds derive from master_seed."""

    base: FgnConfig
    replications: int
    master_seed: int


def fgn_autocovariance(hurst: float, lags, sigma: float = 1.0) -> np.ndarray:
    """Closed-form fGn autocovariance gamma(k) at the given lags."""
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    return 0.5 * sigma**2 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


@lru_cache(maxsize=8)
def _circulant_sqrt_eigenvalues(length: int, hurst: float) -> tuple | None:
    """sqrt of the embedding eigenvalues for unit sigma, or None if indefinite.

    Cached because every replication of an ensemble shares them.
    """
    gamma = fgn_autocovariance(hurst, np.arange(length + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2n, gamma(n) at position n
    eig = np.fft.fft(row).real
    floor = -_EIGENVALUE_TOL * eig.max()
    if eig.min() < floor:
        return None
    return (np.sqrt(np.clip(eig, 0.0, None)),)


def _fgn_circulant(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray | None:
    cached = _circulant_sqrt_eigenvalues(length, hurst)
    if cached is None:
        return None
    (sqrt_eig,) = cached
    n, m = length, 2 * length
    g1 = rng.standard_normal(n)
    g2 = rng.standard_normal(n)
    w = np.zeros(m, dtype=complex)
    w[0] = sqrt_eig[0] / math.sqrt(m) * g1[0]
    k = np.arange(1, n)
    scale = sqrt_eig[k] / math.sqrt(2 * m)
    w[k] = scale * (g1[k] + 1j * g2[k])
    w[n] = sqrt_eig[n] / math.sqrt(m) * g2[0]
    w[m - k] = scale * (g1[k] - 1j * g2[k])
    return np.fft.fft(w)[:n].real


def _fgn_hosking(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    gamma = fgn_autocovariance(hurst, np.arange(length))
    noise = rng.standard_normal(length)
    x = np.empty(length)
    x[0] = noise[0] * math.sqrt(gamma[0])
    if length == 1:
        return x
    variance = gamma[0]
    phi = np.empty(0)
    for t in range(1, length):
        if t == 1:
            kappa = gamma[1] / variance
            phi_new = np.array([kappa])
        else:
            kappa = (gamma[t] - phi @ gamma[t - 1:0:-1]) / variance
            phi_new = np.empty(t)
            phi_new[: t - 1] = phi - kappa * phi[::-1]
            phi_new[t - 1] = kappa
        variance *= 1.0 - kappa * kappa
        mean = phi_new @ x[t - 1 :: -1]
        x[t] = mean + math.sqrt(variance) * noise[t]
        phi = phi_new
    return x


def _generate_values(
    length: int, hurst: float, sigma: float, rng: np.random.Generator, method: str
) -> tuple[np.ndarray, str]:
    if method not in ("auto", "circulant", "hosking"):
        raise InvalidInputError(f"unknown generator method {method!r}")
    if method in ("auto", "circulant"):
        values = _fgn_circulant(length, hurst, rng)
        if values is not None:
            return sigma * values, "circulant"
        if method == "circulant":
            raise InvalidInputError(
                f"circulant embedding not non-negative definite for H={hurst}, n={length}"
            )
        log.warning(
            "circulant embedding indefinite for H=%s, n=%d; falling back to Hosking recursion",
            hurst,
            length,
        )
    return sigma * _fgn_hosking(length, hurst, rng), "hosking"


def generator_method(length: int, hurst: float) -> str:
    """Which sampler an auto-mode generation of this shape will use."""
    return "circulant" if _circulant_sqrt_eigenvalues(length, hurst) is not None else "hosking"


def fgn_generate(cfg: FgnConfig, method: str = "auto") -> ReturnSeries:
    """Generate one fGn sample; deterministic for a given config and method."""
    if cfg.seed is None:
        raise InvalidInputError("fgn_generate requires an explicit seed")
    rng = np.random.default_rng(cfg.seed)
    values, used = _generate_values(cfg.length, cfg.hurst, cfg.sigma, rng, method)
    return ReturnSeries(values=values, label=f"fgn(H={cfg.hurst:g}, n={cfg.length}, {used})")


def fbm_from_fgn(noise) -> ReturnSeries:
    """Cumulative sums of the noise: the motion path starting from zero."""
    values = np.asarray(getattr(noise, "values", noise), dtype=float)
    if values.size < 1:
        raise InvalidInputError("noise must be non-empty")
    label = str(getattr(noise, "label", ""))
    return ReturnSeries(values=np.cumsum(values), label=f"cumsum({label})" if label else "cumsum")


def first_differences(path) -> ReturnSeries:
    """Increments of a path anchored at zero; inverse of :func:`fbm_from_fgn`."""
    values = np.asarray(getattr(path, "values", path), dtype=float)
    if values.size < 1:
        raise InvalidInputError("path must be non-empty")
    return ReturnSeries(values=np.diff(values, prepend=0.0), label="diff")


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-replication stream via a splittable seed construction."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


# one replication's pattern counts, and its 2D+3 p-values in the order
# H1, H2 per day, H3 per position, H4, H5 (NaN for H4/H5 below order 3)
Replication = tuple[np.ndarray, np.ndarray]


def _tested(dist: PatternDistribution) -> Replication:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowExpectedFrequencyWarning)
        matrix = position_matrix(dist)
        outcomes = [
            test_h1_pattern_uniformity(dist),
            *test_h2_day_rows(matrix),
            *test_h3_position_columns(matrix),
        ]
        if dist.order >= 3:
            outcomes += [test_h4_monday_largest(dist), test_h5_monday_worst_friday_best(dist)]
    p_values = [o.p_value for o in outcomes] + [math.nan] * (2 * dist.order + 3 - len(outcomes))
    return dist.counts, np.array(p_values)


def fgn_replication(
    hurst: float, length: int, sigma: float, order: int, master_seed: int, index: int
) -> Replication:
    """Tests on the fGn sample of replication ``index``."""
    rng = replication_rng(master_seed, index)
    values, _ = _generate_values(length, hurst, sigma, rng, "auto")
    return _tested(count_patterns(values, order=order, stride=order))


def shuffle_replication(values: np.ndarray, order: int, master_seed: int, index: int) -> Replication:
    """Tests on the uniformly shuffled copy of ``values`` of replication ``index``."""
    rng = replication_rng(master_seed, index)
    shuffled = values[rng.permutation(values.size)]
    return _tested(count_patterns(shuffled, order=order, stride=order, tie_warn_fraction=None))


def run_replications(
    replicate: Callable[[int], Replication], reps: int, jobs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``replicate(index)`` for every index in ``range(reps)``.

    ``replicate`` must pickle for ``jobs > 1``: a module-level replication
    function bound with :func:`functools.partial`.  Returns the (reps, D!)
    pattern counts and the (reps, 2D+3) p-values, row ``r`` from
    replication ``r``.  Each replication seeds itself from its index and
    ``Executor.map`` yields results in input order, so the output does not
    depend on ``jobs``.
    """
    if reps < 1:
        raise InvalidInputError("replications must be >= 1")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or reps == 1:
        results = [replicate(index) for index in range(reps)]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, reps)) as pool:
            results = list(pool.map(replicate, range(reps), chunksize=max(1, reps // (4 * jobs))))
    counts, p_values = zip(*results)
    return np.stack(counts), np.stack(p_values)


@dataclass(frozen=True)
class RejectionCounts:
    """Replications rejecting a null at the three significance levels."""

    at_10: int = 0
    at_05: int = 0
    at_01: int = 0


def tally_rejections(p_values: np.ndarray) -> list[RejectionCounts]:
    """Rejection counts of each column of a (reps, k) p-value array."""
    hits = (p_values[:, :, None] < np.array(SIGNIFICANCE_LEVELS)).sum(axis=0)
    return [RejectionCounts(*column) for column in hits.tolist()]


@dataclass(frozen=True)
class ChiAggregate:
    """Chi-squared hypothesis aggregated over an ensemble."""

    averaged: TestOutcome  # Q on per-cell mean counts across replications
    rejections: RejectionCounts


@dataclass(frozen=True)
class BinomialAggregate:
    """Family-frequency hypothesis aggregated over an ensemble."""

    averaged: TestOutcome  # z computed from the mean observed frequency
    rejections: RejectionCounts
    mean_observed_frequency: float
    expected_frequency: float
    replications_above_expected: int


@dataclass(frozen=True)
class SimulationReport:
    """Per-Hurst aggregate of the Monte-Carlo seasonality experiment."""

    hurst: float
    length: int
    sigma: float
    replications: int
    master_seed: int
    order: int
    weeks_per_replication: int
    generator: str
    z_weeks: int
    h1: ChiAggregate
    h2: tuple[ChiAggregate, ...]
    h3: tuple[ChiAggregate, ...]
    h4: BinomialAggregate
    h5: BinomialAggregate


def _averaged_chi_outcome(mean_cells: np.ndarray, df: int, payload: dict) -> TestOutcome:
    q = chi2_statistic(mean_cells)
    payload = dict(payload)
    payload["mean_expected_frequency"] = float(mean_cells.sum() / mean_cells.size)
    return TestOutcome.from_p(q, df, chi2_sf(q, df), payload)


def _family_aggregate(
    kind: PatternFamily, counts: np.ndarray, order: int, weeks: int, z_weeks: int, rejections: RejectionCounts
) -> BinomialAggregate:
    family = np.asarray(sorted(pattern_family(kind, order))) - 1
    p_e = family.size / counts.shape[1]  # the family's share under uniformity
    p_o = counts[:, family].sum(axis=1) / weeks
    return BinomialAggregate(
        averaged=binomial_test(p_e, float(p_o.mean()), z_weeks, {"kind": kind.value}),
        rejections=rejections,
        mean_observed_frequency=float(p_o.mean()),
        expected_frequency=p_e,
        replications_above_expected=int((p_o > p_e).sum()),
    )


def run_ensemble(cfg: EnsembleConfig, jobs: int = 1, z_weeks: int | None = None) -> SimulationReport:
    """Run the replicated experiment: generate, count patterns, test H1-H5.

    The report is a deterministic function of ``cfg`` alone: replication
    seeds derive from ``master_seed`` and the replication index, and the
    reduction merges results in index order, so any ``jobs`` value yields
    bit-identical output.  ``z_weeks`` sets the week count used by the
    averaged-frequency z statistics (default: weeks per replication).
    """
    base = cfg.base
    order = 5
    reps = cfg.replications
    weeks = base.length // order
    if weeks < 1:
        raise InvalidInputError("length too short for a single week window")
    z_weeks = weeks if z_weeks is None else int(z_weeks)

    replicate = partial(fgn_replication, base.hurst, base.length, base.sigma, order, cfg.master_seed)
    counts, p_values = run_replications(replicate, reps, jobs)
    rejections = tally_rejections(p_values)

    mean_counts = counts.sum(axis=0) / reps
    if mean_counts.sum() / mean_counts.size < 5.0:
        warnings.warn(
            "mean expected pattern frequency below 5; chi-squared p-values are approximate",
            LowExpectedFrequencyWarning,
            stacklevel=2,
        )
    mean_matrix = position_counts(mean_counts, order)
    df = order - 1

    return SimulationReport(
        hurst=base.hurst,
        length=base.length,
        sigma=base.sigma,
        replications=reps,
        master_seed=cfg.master_seed,
        order=order,
        weeks_per_replication=weeks,
        generator=generator_method(base.length, base.hurst),
        z_weeks=z_weeks,
        h1=ChiAggregate(
            averaged=_averaged_chi_outcome(mean_counts, mean_counts.size - 1, {"kind": "pattern-uniformity"}),
            rejections=rejections[0],
        ),
        h2=tuple(
            ChiAggregate(
                averaged=_averaged_chi_outcome(mean_matrix[i, :], df, {"kind": "day-row", "day": i}),
                rejections=rejections[1 + i],
            )
            for i in range(order)
        ),
        h3=tuple(
            ChiAggregate(
                averaged=_averaged_chi_outcome(
                    mean_matrix[:, j], df, {"kind": "position-column", "position": j}
                ),
                rejections=rejections[1 + order + j],
            )
            for j in range(order)
        ),
        h4=_family_aggregate(PatternFamily.MONDAY_LARGEST, counts, order, weeks, z_weeks, rejections[-2]),
        h5=_family_aggregate(
            PatternFamily.MONDAY_WORST_FRIDAY_BEST, counts, order, weeks, z_weeks, rejections[-1]
        ),
    )
