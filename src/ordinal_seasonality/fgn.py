"""Exact fractional Gaussian noise and the Monte-Carlo replication engine.

One exact sampler, circulant embedding (Davies-Harte, O(n log n)), realizes
the fGn autocovariance

    gamma(k) = (sigma^2 / 2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

exactly, so covariance properties are testable rather than approximate.
The embedding's eigenvalues are non-negative for every H in (0, 1), and
gamma is evaluated without cancellation, so no input needs a fallback.
Of the 2n-entry Hermitian spectrum a draw fills only the n+1 non-redundant
entries, from 2n standard normals in two blocks of n, and takes one
``np.fft.hfft``; each (length, H) caches its per-frequency scale.

One engine, :func:`run_replications`, repeats the five seasonality tests
over seeded replications, serially or on a process pool.  It drives both
the fGn experiment (:func:`run_ensemble`, the ``simulate`` command) and the
shuffled-surrogate experiment (:func:`shuffle_replication`, the ``shuffle``
command).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .ingest import ReturnSeries
from .patterns import (
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
        if self.seed is not None and self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Replicated fGn experiment; per-replication seeds derive from master_seed."""

    base: FgnConfig
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.master_seed}")


def fgn_autocovariance(hurst: float, lags, sigma: float = 1.0) -> np.ndarray:
    """Closed-form fGn autocovariance gamma(k) at the given lags.

    Evaluated as k^{2H} ((1 + 1/k)^{2H} - 1 + (1 - 1/k)^{2H} - 1) with
    log1p/expm1, so the relative error stays near machine precision at
    every lag instead of growing like eps * k^2 through cancellation.
    """
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    with np.errstate(divide="ignore", invalid="ignore"):  # lag 0 is set below; lag 1 hits log1p(-1)
        inv = 1.0 / k
        gamma = k**two_h * (np.expm1(two_h * np.log1p(inv)) + np.expm1(two_h * np.log1p(-inv)))
    return np.where(k == 0.0, sigma**2, 0.5 * sigma**2 * gamma)


@lru_cache(maxsize=8)
def _circulant_scale(length: int, hurst: float) -> np.ndarray:
    """Per-frequency scale of the draw for unit sigma: a read-only (n+1,) array.

    ``sqrt(eig_k / 2m)`` for 0 < k < n, where one complex normal carries
    frequency k, and ``sqrt(eig_k / m)`` at k = 0 and k = n, the two real
    frequencies, each carrying one normal.  The exact eigenvalues are
    non-negative for every H in (0, 1); clipping only removes FFT rounding
    around zero.  Cached because every replication of an ensemble shares it.
    """
    n, m = length, 2 * length
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2n, gamma(n) at position n
    sqrt_eig = np.sqrt(np.clip(np.fft.fft(row).real, 0.0, None))[: n + 1]
    scale = sqrt_eig / math.sqrt(2 * m)
    scale[[0, n]] = sqrt_eig[[0, n]] / math.sqrt(m)
    scale.flags.writeable = False
    return scale


def _fgn_circulant(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    n = length
    g1 = rng.standard_normal(n)
    g2 = rng.standard_normal(n)
    w = np.empty(n + 1, dtype=complex)
    w.real[:n] = g1
    w.real[n] = g2[0]
    w.imag[1:n] = g2[1:]
    w.imag[0] = w.imag[n] = 0.0
    w *= _circulant_scale(n, hurst)
    return np.fft.hfft(w, 2 * n)[:n]


def fgn_generate(cfg: FgnConfig) -> ReturnSeries:
    """Generate one fGn sample by circulant embedding; deterministic for a given config."""
    if cfg.seed is None:
        raise InvalidInputError("fgn_generate requires an explicit seed")
    values = cfg.sigma * _fgn_circulant(cfg.length, cfg.hurst, np.random.default_rng(cfg.seed))
    return ReturnSeries(values=values, label=f"fgn(H={cfg.hurst:g}, n={cfg.length}, circulant)")


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
    values = sigma * _fgn_circulant(length, hurst, rng)
    return _tested(count_patterns(values, order=order, stride=order))


def shuffle_replication(values: np.ndarray, order: int, master_seed: int, index: int) -> Replication:
    """Tests on the uniformly shuffled copy of ``values`` of replication ``index``."""
    rng = replication_rng(master_seed, index)
    shuffled = values[rng.permutation(values.size)]
    return _tested(count_patterns(shuffled, order=order, stride=order))


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
    generator: str  # provenance: always "circulant"
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
    kind: PatternFamily, counts: np.ndarray, order: int, weeks: int, rejections: RejectionCounts
) -> BinomialAggregate:
    family = np.asarray(sorted(pattern_family(kind, order))) - 1
    p_e = family.size / counts.shape[1]  # the family's share under uniformity
    p_o = counts[:, family].sum(axis=1) / weeks
    return BinomialAggregate(
        averaged=binomial_test(p_e, float(p_o.mean()), weeks, {"kind": kind.value}),
        rejections=rejections,
        mean_observed_frequency=float(p_o.mean()),
        expected_frequency=p_e,
        replications_above_expected=int((p_o > p_e).sum()),
    )


def run_ensemble(cfg: EnsembleConfig, jobs: int = 1) -> SimulationReport:
    """Run the replicated experiment: generate, count patterns, test H1-H5.

    The report is a deterministic function of ``cfg`` alone: replication
    seeds derive from ``master_seed`` and the replication index, and the
    reduction merges results in index order, so any ``jobs`` value yields
    bit-identical output.  The averaged-frequency z statistics use the
    weeks per replication.
    """
    base = cfg.base
    order = 5
    reps = cfg.replications
    weeks = base.length // order
    if weeks < 1:
        raise InvalidInputError("length too short for a single week window")

    replicate = partial(fgn_replication, base.hurst, base.length, base.sigma, order, cfg.master_seed)
    counts, p_values = run_replications(replicate, reps, jobs)
    rejections = tally_rejections(p_values)

    mean_counts = counts.sum(axis=0) / reps
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
        generator="circulant",
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
        h4=_family_aggregate(PatternFamily.MONDAY_LARGEST, counts, order, weeks, rejections[-2]),
        h5=_family_aggregate(
            PatternFamily.MONDAY_WORST_FRIDAY_BEST, counts, order, weeks, rejections[-1]
        ),
    )
