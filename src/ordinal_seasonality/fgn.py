"""Exact fractional Gaussian noise and the Monte-Carlo replication engine.

One exact sampler, circulant embedding (Davies-Harte, O(n log n)), realizes
the unit-variance fGn autocovariance

    gamma(k) = (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2

exactly, so covariance properties are testable rather than approximate.
Noise of standard deviation sigma is sigma times a draw.
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
    family_index,
    family_share,
    pattern_family,  # unused here; bench/tracer.py wraps fgn.pattern_family by name
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
    """One unit-variance fractional-Gaussian-noise sample: Hurst exponent, length, seed."""

    hurst: float
    length: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise InvalidInputError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.length < 2:
            raise InvalidInputError("length must be >= 2")
        if self.seed is not None and self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Replicated fGn experiment; per-replication seeds derive from master_seed.

    The base config takes no seed: the replications would not read it.
    """

    base: FgnConfig
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.base.seed is not None:
            raise InvalidInputError("the base config of an ensemble takes no seed; set master_seed")
        if self.master_seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.master_seed}")


def fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """Closed-form unit-variance fGn autocovariance gamma(k) at the given lags.

    Evaluated as k^{2H} ((1 + 1/k)^{2H} - 1 + (1 - 1/k)^{2H} - 1) with
    log1p/expm1, so the relative error stays near machine precision at
    every lag instead of growing like eps * k^2 through cancellation.
    """
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    with np.errstate(divide="ignore", invalid="ignore"):  # lag 0 is set below; lag 1 hits log1p(-1)
        inv = 1.0 / k
        gamma = k**two_h * (np.expm1(two_h * np.log1p(inv)) + np.expm1(two_h * np.log1p(-inv)))
    return np.where(k == 0.0, 1.0, 0.5 * gamma)


@lru_cache(maxsize=8)
def _circulant_scale(length: int, hurst: float) -> np.ndarray:
    """Per-frequency scale of the draw: a read-only (n+1,) array.

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
    values = _fgn_circulant(cfg.length, cfg.hurst, np.random.default_rng(cfg.seed))
    return ReturnSeries(values=values, label=f"fgn(H={cfg.hurst:g}, n={cfg.length}, circulant)")


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-replication stream via a splittable seed construction."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def by_test(items) -> tuple:
    """Split a sequence in the 2D+3 p-value layout into ``(h1, h2, h3, h4, h5)``.

    The layout is H1, the D day rows of H2, the D position columns of H3,
    then H4 and H5, so D follows from its length; ``h2`` and ``h3`` are
    slices of ``items``.
    """
    order = (len(items) - 3) // 2
    return items[0], items[1 : 1 + order], items[1 + order : -2], items[-2], items[-1]


def _tested(dist: PatternDistribution) -> np.ndarray:
    """The 2D+3 test p-values of one replication, in :func:`by_test`'s layout."""
    matrix = position_matrix(dist)
    outcomes = [
        test_h1_pattern_uniformity(dist),
        *test_h2_day_rows(matrix),
        *test_h3_position_columns(matrix),
        test_h4_monday_largest(dist),
        test_h5_monday_worst_friday_best(dist),
    ]
    return np.array([o.p_value for o in outcomes])


def fgn_replication(
    hurst: float, length: int, order: int, master_seed: int, index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern counts and test p-values of the fGn sample of replication ``index``."""
    rng = replication_rng(master_seed, index)
    dist = count_patterns(_fgn_circulant(length, hurst, rng), order=order)
    return dist.counts, _tested(dist)


def shuffle_replication(values: np.ndarray, order: int, master_seed: int, index: int) -> np.ndarray:
    """Test p-values of the uniformly shuffled copy of ``values`` of replication ``index``."""
    rng = replication_rng(master_seed, index)
    # shuffling a copy draws the same swaps as permuting indices, so equals values[permutation(n)]
    shuffled = rng.permutation(values)
    return _tested(count_patterns(shuffled, order=order))


def run_replications(replicate: Callable[[int], object], reps: int, jobs: int) -> list:
    """Run ``replicate(index)`` for every index in ``range(reps)``.

    ``replicate`` must pickle for ``jobs > 1``: a module-level replication
    function bound with :func:`functools.partial`.  Returns the results in
    index order, item ``r`` from replication ``r``.  Each replication seeds
    itself from its index and ``Executor.map`` yields results in input
    order, so the output does not depend on ``jobs``.
    """
    if reps < 1:
        raise InvalidInputError("replications must be >= 1")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or reps == 1:
        return [replicate(index) for index in range(reps)]
    with ProcessPoolExecutor(max_workers=min(jobs, reps)) as pool:
        return list(pool.map(replicate, range(reps), chunksize=max(1, reps // (4 * jobs))))


@dataclass(frozen=True)
class RejectionCounts:
    """Replications rejecting a null at the three significance levels."""

    at_10: int
    at_05: int
    at_01: int


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

    expected_frequency: float
    mean_observed_frequency: float
    averaged: TestOutcome  # the binomial test of the mean family count per replication
    rejections: RejectionCounts
    replications_above_expected: int


@dataclass(frozen=True)
class SimulationReport:
    """Per-Hurst aggregate of the Monte-Carlo seasonality experiment.

    Its fields, in order, are the keys of a ``simulate`` report row.
    """

    hurst: float
    weeks: int  # windows of order 5 per replication
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
    p_e = family_share(kind, order)
    family_counts = counts[:, family_index(kind, order)].sum(axis=1)
    p_o = family_counts / weeks
    return BinomialAggregate(
        expected_frequency=p_e,
        mean_observed_frequency=float(p_o.mean()),
        averaged=binomial_test(p_e, float(family_counts.mean()), weeks, {"kind": kind.value}),
        rejections=rejections,
        replications_above_expected=int((p_o > p_e).sum()),
    )


def run_ensemble(cfg: EnsembleConfig, jobs: int = 1) -> SimulationReport:
    """Run the replicated experiment: generate, count patterns, test H1-H5.

    The report is a deterministic function of ``cfg`` alone: replication
    seeds derive from ``master_seed`` and the replication index, and the
    reduction merges results in index order, so any ``jobs`` value yields
    bit-identical output.  The averaged H4 and H5 outcomes test the mean
    family count over the weeks per replication.
    """
    base = cfg.base
    order = 5
    reps = cfg.replications
    weeks = base.length // order
    if weeks < 1:
        raise InvalidInputError("length too short for a single week window")

    replicate = partial(fgn_replication, base.hurst, base.length, order, cfg.master_seed)
    counts, p_values = map(np.stack, zip(*run_replications(replicate, reps, jobs)))
    r1, r2, r3, r4, r5 = by_test(tally_rejections(p_values))

    mean_counts = counts.sum(axis=0) / reps
    mean_matrix = position_counts(mean_counts, order)
    df = order - 1

    return SimulationReport(
        hurst=base.hurst,
        weeks=weeks,
        generator="circulant",
        h1=ChiAggregate(
            averaged=_averaged_chi_outcome(mean_counts, mean_counts.size - 1, {"kind": "pattern-uniformity"}),
            rejections=r1,
        ),
        h2=tuple(
            ChiAggregate(
                averaged=_averaged_chi_outcome(mean_matrix[i, :], df, {"kind": "day-row", "day": i}),
                rejections=rejections,
            )
            for i, rejections in enumerate(r2)
        ),
        h3=tuple(
            ChiAggregate(
                averaged=_averaged_chi_outcome(
                    mean_matrix[:, j], df, {"kind": "position-column", "position": j}
                ),
                rejections=rejections,
            )
            for j, rejections in enumerate(r3)
        ),
        h4=_family_aggregate(PatternFamily.MONDAY_LARGEST, counts, order, weeks, r4),
        h5=_family_aggregate(PatternFamily.MONDAY_WORST_FRIDAY_BEST, counts, order, weeks, r5),
    )
