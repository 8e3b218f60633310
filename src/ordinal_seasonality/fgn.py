"""Exact fractional Gaussian noise and the Monte-Carlo replication engine.

One exact sampler, circulant embedding (Davies-Harte, O(n log n)), realizes
the unit-variance fGn autocovariance

    gamma(k) = (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2

exactly, so covariance properties are testable rather than approximate.
Noise of standard deviation sigma is sigma times a draw.
The embedding's eigenvalues are non-negative for every H in (0, 1), and
gamma is evaluated without cancellation, so no input needs a fallback.
Of the 2n-entry Hermitian spectrum a draw fills only the n+1 non-redundant
entries, from 2n standard normals, and takes the Hermitian FFT; each
(length, H) caches its per-frequency scale.  Draws come in blocks: each
row of one (B, n+1) spectrum is filled from its own generator, and one
transform along the rows serves them all.  A single draw is a block of
one, so there is one sampler.

One engine, :func:`run_replications`, repeats the five seasonality tests
over seeded replications, serially or on a process pool of at most one
worker per available CPU.  It drives both the fGn experiment
(:func:`run_ensemble`, the ``simulate`` command), one contiguous share of
replications per worker, each share one :func:`fgn_replications` call
drawing blocks of at most 1 MiB of spectrum in a workspace of its own,
and the shuffled-surrogate experiment (:func:`shuffle_replication`, the
``shuffle`` command), one replication per unit.  Both read only the
p-values of the 2D+3 tests (:func:`_p_values`).
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, whole_number
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
    _pearson,
    binomial_test,
    chi2_sf,
    chi2_statistic,
    position_matrix,
    test_h1_pattern_uniformity,  # unused here; bench/tracer.py wraps fgn.test_h1_pattern_uniformity by name
    test_h4_monday_largest,
    test_h5_monday_worst_friday_best,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FgnConfig:
    """One unit-variance fractional-Gaussian-noise sample: Hurst exponent, length, seed.

    ``hurst`` must be a real number, and is stored as a float; ``length``
    and ``seed`` must be whole numbers, and are stored as ints.
    """

    hurst: float
    length: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.hurst, (int, float, np.integer, np.floating)):
            raise InvalidInputError(f"hurst must be a real number, got {self.hurst!r}")
        object.__setattr__(self, "hurst", float(self.hurst))
        if not 0.0 < self.hurst < 1.0:
            raise InvalidInputError(f"hurst must lie in (0, 1), got {self.hurst}")
        object.__setattr__(self, "length", whole_number(self.length, "length"))
        if self.length < 2:
            raise InvalidInputError("length must be >= 2")
        if self.seed is not None:
            object.__setattr__(self, "seed", whole_number(self.seed, "seed"))
            if self.seed < 0:
                raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Replicated fGn experiment; per-replication seeds derive from master_seed.

    The base config takes no seed: the replications would not read it.
    ``replications`` and ``master_seed`` must be whole numbers, and are
    stored as ints.
    """

    base: FgnConfig
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.base.seed is not None:
            raise InvalidInputError("the base config of an ensemble takes no seed; set master_seed")
        object.__setattr__(self, "replications", whole_number(self.replications, "replications"))
        object.__setattr__(self, "master_seed", whole_number(self.master_seed, "seed"))
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


def _fgn_block(
    spectrum: np.ndarray, normals: np.ndarray, hurst: float, rngs: list[np.random.Generator]
) -> np.ndarray:
    """One fGn draw per generator: a (len(rngs), n) array, row r from ``rngs[r]``.

    ``spectrum`` and ``normals`` are the workspace: a zeroed complex (B, n+1)
    array with B >= len(rngs), whose imaginary parts at frequencies 0 and n
    stay zero, and a buffer of 2n floats.  Only the first len(rngs) rows of
    the spectrum are written.  Each generator reads 2n standard normals into
    ``normals``: the first n+1 are the real parts of frequencies 0..n, the
    last n-1 the imaginary parts of frequencies 1..n-1.  Its row holds the
    conjugate of that spectrum, scaled, and one ``np.fft.irfft`` with
    ``norm="forward"`` transforms every row.  That is what ``np.fft.hfft``
    does after conjugating a copy of its input, so the draws equal ``hfft``
    of the spectrum bit for bit, without the copy.  A row transforms and
    scales as it would alone, so a draw does not depend on the block it is
    drawn in.
    """
    n = spectrum.shape[1] - 1
    block = spectrum[: len(rngs)]
    for row, rng in zip(block, rngs):
        rng.standard_normal(out=normals)
        row.real = normals[: n + 1]
        np.negative(normals[n + 1 :], out=row.imag[1:n])
    block *= _circulant_scale(n, hurst)
    return np.fft.irfft(block, 2 * n, axis=-1, norm="forward")[:, :n]


def fgn_generate(cfg: FgnConfig) -> ReturnSeries:
    """Generate one fGn sample by circulant embedding; deterministic for a given config."""
    if cfg.seed is None:
        raise InvalidInputError("fgn_generate requires an explicit seed")
    spectrum, normals = np.zeros((1, cfg.length + 1), dtype=complex), np.empty(2 * cfg.length)
    values = _fgn_block(spectrum, normals, cfg.hurst, [np.random.default_rng(cfg.seed)])[0]
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


def _p_values(dist: PatternDistribution) -> np.ndarray:
    """The 2D+3 test p-values of one replication, in :func:`by_test`'s layout.

    The public ``test_h*`` functions' p-values bit for bit, without building
    their outcomes: one Pearson pass over the pattern counts, one over the
    position matrix's D rows and D columns stacked as (2D, D) rows, then one
    chi-squared tail each.  H4 and H5 are the public tests.
    """
    matrix = position_matrix(dist)
    q_patterns = _pearson(dist.counts.astype(float))[0]
    q_lines = _pearson(np.concatenate([matrix, matrix.T], dtype=float))[0]
    return np.array([
        chi2_sf(q_patterns, dist.counts.size - 1),
        *(chi2_sf(q, dist.order - 1) for q in q_lines.tolist()),
        test_h4_monday_largest(dist).p_value,
        test_h5_monday_worst_friday_best(dist).p_value,
    ])


# the most bytes of complex spectrum one block of fGn draws holds
_BLOCK_BYTES = 2**20


def _block_draws(length: int) -> int:
    """Draws per block whose (B, n+1) complex spectrum holds at most 1 MiB; one from n = 65,536 up."""
    return max(1, _BLOCK_BYTES // (16 * (length + 1)))


def fgn_replications(
    hurst: float, length: int, order: int, master_seed: int, indices: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pattern counts and test p-values of the fGn samples of ``indices``, in order.

    Draws B = min(len(indices), :func:`_block_draws`) consecutive indices at
    a time with :func:`_fgn_block`, in one workspace per call.  A 1 MiB
    block (6 draws at n = 10,000) ran ``simulate`` fastest: blocks of one or
    three draws took over 20% longer, 2-4 MiB ones gained nothing while peak
    memory grew 7-21%, and a workspace made afresh per block let glibc hand
    about 2 MiB back to the system and fault it in again.  A block's rows
    are used up in a comprehension, so no row keeps its transform alive
    while the next block is drawn.  Each sample has its own
    :func:`replication_rng` stream and transforms as it would alone, so no
    result depends on how the indices are split into calls or blocks.
    """
    size = min(len(indices), _block_draws(length))
    spectrum, normals = np.zeros((size, length + 1), dtype=complex), np.empty(2 * length)
    results = []
    for start in range(0, len(indices), size):
        rngs = [replication_rng(master_seed, index) for index in indices[start : start + size]]
        dists = [count_patterns(values, order=order) for values in _fgn_block(spectrum, normals, hurst, rngs)]
        results += [(dist.counts, _p_values(dist)) for dist in dists]
    return results


def shuffle_replication(values: np.ndarray, order: int, master_seed: int, index: int) -> np.ndarray:
    """Test p-values of the uniformly shuffled copy of ``values`` of replication ``index``."""
    rng = replication_rng(master_seed, index)
    # shuffling a copy draws the same swaps as permuting indices, so equals values[permutation(n)]
    shuffled = rng.permutation(values)
    return _p_values(count_patterns(shuffled, order=order))


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_replications(replicate: Callable, units: Sequence, jobs: int) -> list:
    """Run ``replicate(unit)`` for every work unit, serially or on a process pool.

    A unit is a replication index (``shuffle``) or a contiguous share of
    indices for one :func:`fgn_replications` call, one share per worker
    (``simulate``).  A shuffle is a permutation with no transform to share,
    so a share of them would save nothing, and ``shuffle`` keeps one
    replication per unit.  ``replicate`` must pickle for ``jobs > 1``: a
    module-level replication function bound with :func:`functools.partial`.
    The pool starts min(jobs, units, CPUs) workers, so never more than one
    per CPU this process may run on.  Returns the results in unit order.
    Each replication seeds itself from its index and does not depend on
    the unit it is drawn in, and ``Executor.map`` yields results in input
    order, so the output does not depend on ``jobs``.
    """
    if len(units) < 1:
        raise InvalidInputError("replications must be >= 1")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(units) == 1:
        return [replicate(unit) for unit in units]
    cpus = _available_cpus()
    if jobs > cpus:
        log.info("jobs %d: at most %d pool workers, one per CPU this process may run on", jobs, cpus)
    workers = min(jobs, len(units), cpus)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(replicate, units, chunksize=max(1, len(units) // (4 * workers))))


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


def _averaged_chi_outcome(mean_cells: np.ndarray, payload: dict) -> TestOutcome:
    q = chi2_statistic(mean_cells)
    df = mean_cells.size - 1
    payload = dict(payload)
    payload["mean_expected_frequency"] = float(mean_cells.sum() / mean_cells.size)
    return TestOutcome(q, df, chi2_sf(q, df), payload)


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

    # one contiguous share of whole blocks per worker the pool would start
    size = _block_draws(base.length)
    blocks = math.ceil(reps / size)
    workers = max(1, min(jobs, blocks, _available_cpus()))
    bounds = [min(reps, blocks * k // workers * size) for k in range(workers + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    replicate = partial(fgn_replications, base.hurst, base.length, order, cfg.master_seed)
    results = chain.from_iterable(run_replications(replicate, shares, jobs))
    counts, p_values = map(np.stack, zip(*results))
    rejections = tally_rejections(p_values)

    mean_counts = counts.sum(axis=0) / reps
    mean_matrix = position_counts(mean_counts, order)
    averaged = [
        _averaged_chi_outcome(mean_counts, {"kind": "pattern-uniformity"}),
        *(_averaged_chi_outcome(row, {"kind": "day-row", "day": i}) for i, row in enumerate(mean_matrix)),
        *(
            _averaged_chi_outcome(column, {"kind": "position-column", "position": j})
            for j, column in enumerate(mean_matrix.T)
        ),
    ]
    aggregates = (
        *(ChiAggregate(outcome, r) for outcome, r in zip(averaged, rejections[:-2])),
        *(
            _family_aggregate(kind, counts, order, weeks, r)
            for kind, r in zip(PatternFamily, rejections[-2:])
        ),
    )
    return SimulationReport(base.hurst, weeks, "circulant", *by_test(aggregates))
