import logging
import math
import os
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from ordinal_seasonality import fgn
from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.fgn import (
    EnsembleConfig,
    FgnConfig,
    _available_cpus,
    _fgn_block,
    _p_values,
    by_test,
    fgn_autocovariance,
    fgn_generate,
    fgn_replications,
    replication_rng,
    run_ensemble,
    run_replications,
    shuffle_replication,
    tally_rejections,
)
from ordinal_seasonality.ingest import load_csv
from ordinal_seasonality.patterns import count_patterns
from ordinal_seasonality.stats import SIGNIFICANCE_LEVELS, binomial_test, position_matrix
from ordinal_seasonality.stats import test_h1_pattern_uniformity as h1_test
from ordinal_seasonality.stats import test_h2_day_rows as h2_test
from ordinal_seasonality.stats import test_h3_position_columns as h3_test
from ordinal_seasonality.stats import test_h4_monday_largest as h4_test
from ordinal_seasonality.stats import test_h5_monday_worst_friday_best as h5_test
from oracles import fgn_autocovariance_decimal, fgn_circulant_full_spectrum, fgn_hosking


def _sample_autocov(x: np.ndarray, lag: int) -> float:
    # the generator is zero-mean by construction, so no demeaning
    if lag == 0:
        return float((x * x).mean())
    return float((x[:-lag] * x[lag:]).mean())


def _draw(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """One fGn draw: a block of one in a fresh one-row workspace."""
    return _fgn_block(np.zeros((1, length + 1), dtype=complex), np.empty(2 * length), hurst, [rng])[0]


# ---------------------------------------------------------------------------
# closed-form autocovariance
# ---------------------------------------------------------------------------


def test_autocovariance_closed_form_values():
    assert fgn_autocovariance(0.9, [1])[0] == pytest.approx(0.5 * (2**1.8 - 2), abs=1e-12)
    assert fgn_autocovariance(0.9, [1])[0] == pytest.approx(0.74110, abs=1e-5)
    assert fgn_autocovariance(0.1, [1])[0] == pytest.approx(0.5 * (2**0.2 - 2), abs=1e-12)
    assert fgn_autocovariance(0.1, [1])[0] < 0  # antipersistent
    assert fgn_autocovariance(0.5, [1, 2, 3]).tolist() == [0.0, 0.0, 0.0]
    assert fgn_autocovariance(0.7, [0])[0] == 1.0


@pytest.mark.parametrize("hurst", [0.01, 0.1, 0.3, 0.7, 0.9, 0.99, 0.999])
def test_autocovariance_matches_decimal_oracle_at_large_lags(hurst):
    # the naive second difference of k^{2H} loses eps * k^2 relative accuracy
    lags = [1, 2, 10, 1_000, 100_000, 1_000_000, 4_000_000]
    expected = [fgn_autocovariance_decimal(hurst, lag) for lag in lags]
    assert fgn_autocovariance(hurst, lags) == pytest.approx(expected, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("hurst", [0.01, 0.95, 0.99, 0.999])
def test_circulant_eigenvalues_non_negative_at_a_million(hurst):
    # recomputed without the library's clipping: only FFT rounding may go below zero
    n = 1_000_000
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    assert eig.min() >= -n * np.finfo(float).eps * eig.max()


def test_near_unit_hurst_at_a_million_uses_circulant():
    series = fgn_generate(FgnConfig(hurst=0.99, length=1_000_000, seed=4))
    assert series.values.shape == (1_000_000,)
    assert np.isfinite(series.values).all()
    assert series.label == "fgn(H=0.99, n=1000000, circulant)"


@pytest.mark.parametrize("length", [2, 3, 10, 1000, 4097, 10000])
@pytest.mark.parametrize("hurst", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
def test_draw_matches_full_spectrum_oracle(hurst, length):
    for seed in range(3):
        got = _draw(length, hurst, np.random.default_rng(seed))
        expected = fgn_circulant_full_spectrum(length, hurst, np.random.default_rng(seed))
        assert np.abs(got - expected).max() <= 1e-12


@pytest.mark.parametrize("length", [2, 3, 4097])
def test_draw_consumes_two_blocks_of_n_normals(length):
    rng, reference = np.random.default_rng(6), np.random.default_rng(6)
    _draw(length, 0.7, rng)
    reference.standard_normal(length)
    reference.standard_normal(length)
    assert rng.standard_normal() == reference.standard_normal()


def test_config_validation():
    with pytest.raises(InvalidInputError):
        FgnConfig(hurst=1.2, length=100)
    with pytest.raises(InvalidInputError):
        FgnConfig(hurst=0.5, length=1)
    with pytest.raises(InvalidInputError):
        fgn_generate(FgnConfig(hurst=0.5, length=100))  # no seed
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        FgnConfig(hurst=0.5, length=100, seed=-1)
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        EnsembleConfig(base=FgnConfig(hurst=0.5, length=100), replications=2, master_seed=-1)
    with pytest.raises(InvalidInputError, match="takes no seed"):
        EnsembleConfig(base=FgnConfig(hurst=0.5, length=100, seed=3), replications=2, master_seed=1)


def test_configs_take_only_whole_numbers():
    base = FgnConfig(hurst=0.5, length=100)
    with pytest.raises(InvalidInputError, match=r"^length must be a whole number, got 10\.5$"):
        FgnConfig(hurst=0.5, length=10.5)
    with pytest.raises(InvalidInputError, match=r"^seed must be a whole number, got 1\.5$"):
        FgnConfig(hurst=0.5, length=100, seed=1.5)
    with pytest.raises(InvalidInputError, match=r"^replications must be a whole number, got 2\.5$"):
        EnsembleConfig(base=base, replications=2.5, master_seed=1)
    with pytest.raises(InvalidInputError, match=r"^seed must be a whole number, got 0\.5$"):
        EnsembleConfig(base=base, replications=2, master_seed=0.5)
    # whole floats and numpy integers run, stored as ints
    cfg = FgnConfig(hurst=0.5, length=1000.0, seed=np.int64(3))
    assert (type(cfg.length), type(cfg.seed)) == (int, int)
    reference = fgn_generate(FgnConfig(hurst=0.5, length=1000, seed=3))
    assert np.array_equal(fgn_generate(cfg).values, reference.values)
    ensemble = EnsembleConfig(base=base, replications=2.0, master_seed=np.int64(1))
    assert (type(ensemble.replications), type(ensemble.master_seed)) == (int, int)


@pytest.mark.parametrize(
    ("hurst", "message"),
    [
        ("0.5", "hurst must be a real number, got '0.5'"),
        (None, "hurst must be a real number, got None"),
        ([0.5], "hurst must be a real number, got [0.5]"),
        (np.int64(1), "hurst must lie in (0, 1), got 1.0"),
        (math.nan, "hurst must lie in (0, 1), got nan"),
    ],
    ids=["str", "none", "list", "np-int64", "nan"],
)
def test_config_takes_only_a_real_hurst(hurst, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        FgnConfig(hurst=hurst, length=100)


@pytest.mark.parametrize("hurst", [0.7, np.float64(0.7), np.float32(0.25)], ids=["float", "np-float64", "np-float32"])
def test_config_stores_hurst_as_a_float(hurst):
    cfg = FgnConfig(hurst=hurst, length=100)
    assert type(cfg.hurst) is float and cfg.hurst == float(hurst)
    # the ensemble's report carries it on, as a float a report can hold
    report = run_ensemble(EnsembleConfig(base=cfg, replications=1, master_seed=1))
    assert type(report.hurst) is float


# ---------------------------------------------------------------------------
# sample covariance of generated series
# ---------------------------------------------------------------------------


def test_white_noise_case():
    x = fgn_generate(FgnConfig(hurst=0.5, length=100_000, seed=0)).values
    assert abs(_sample_autocov(x, 1) / _sample_autocov(x, 0)) < 0.01
    assert _sample_autocov(x, 0) == pytest.approx(1.0, abs=0.02)


def test_persistent_lag_one_autocovariance():
    # lag-1 sample autocovariance under strong long memory is noisy
    # (its sampling error decays like n^(2H-2)), so the seed is frozen
    x = fgn_generate(FgnConfig(hurst=0.9, length=100_000, seed=10)).values
    assert _sample_autocov(x, 1) == pytest.approx(0.74110, abs=0.02)


def test_antipersistent_lag_one_autocovariance():
    x = fgn_generate(FgnConfig(hurst=0.1, length=100_000, seed=0)).values
    assert _sample_autocov(x, 1) == pytest.approx(-0.42565, abs=0.02)


def test_determinism_and_seed_separation():
    cfg = FgnConfig(hurst=0.7, length=2000, seed=5)
    assert np.array_equal(fgn_generate(cfg).values, fgn_generate(cfg).values)
    other = fgn_generate(FgnConfig(hurst=0.7, length=2000, seed=6)).values
    assert not np.array_equal(fgn_generate(cfg).values, other)


def test_hosking_matches_circulant_distribution():
    n = 4000
    circ = fgn_generate(FgnConfig(hurst=0.8, length=n, seed=21)).values
    hosk = fgn_hosking(n, 0.8, np.random.default_rng(22))
    stat = ks_2samp(circ, hosk)
    assert stat.pvalue > 0.01


def test_hosking_lag_one_covariance():
    # long memory keeps the sample autocovariance noisy, so the seed is frozen
    hosk = fgn_hosking(8000, 0.8, np.random.default_rng(23))
    assert _sample_autocov(hosk, 1) == pytest.approx(
        fgn_autocovariance(0.8, [1])[0], abs=0.05
    )


def test_hosking_recursion_small_case_exact_variance():
    # with many replications the per-step conditional variances must
    # reproduce gamma(0) and gamma(1)
    reps = 4000
    rng = np.random.default_rng(41)
    samples = np.array([fgn_hosking(4, 0.7, rng) for _ in range(reps)])
    gamma = fgn_autocovariance(0.7, [0, 1, 2])
    cov = np.cov(samples.T, bias=True)
    assert cov[0, 0] == pytest.approx(gamma[0], abs=0.08)
    assert cov[0, 1] == pytest.approx(gamma[1], abs=0.08)
    assert cov[1, 3] == pytest.approx(gamma[2], abs=0.08)


@pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
def test_marginals_are_gaussian(hurst):
    x = fgn_generate(FgnConfig(hurst=hurst, length=1_000_000, seed=1234)).values
    z = (x - x.mean()) / x.std()
    skewness = float((z**3).mean())
    excess_kurtosis = float((z**4).mean() - 3.0)
    assert abs(skewness) < 0.05
    assert abs(excess_kurtosis) < 0.1


# ---------------------------------------------------------------------------
# motion paths
# ---------------------------------------------------------------------------


def test_fbm_variance_growth_exponent():
    reps, length, hurst = 500, 1000, 0.7
    paths = np.empty((reps, length))
    for r in range(reps):
        rng = replication_rng(99, r)
        paths[r] = np.cumsum(_draw(length, hurst, rng))
    times = np.unique(np.geomspace(10, length, 12).astype(int))
    var = paths[:, times - 1].var(axis=0)
    slope = np.polyfit(np.log(times), np.log(var), 1)[0]
    assert slope == pytest.approx(2 * hurst, abs=0.1)


# ---------------------------------------------------------------------------
# ensemble harness
# ---------------------------------------------------------------------------


def _small_ensemble(hurst, reps=12, length=1500, seed=77):
    return EnsembleConfig(
        base=FgnConfig(hurst=hurst, length=length),
        replications=reps,
        master_seed=seed,
    )


def test_ensemble_deterministic_across_jobs():
    cfg = _small_ensemble(0.6)
    serial = run_ensemble(cfg, jobs=1)
    parallel = run_ensemble(cfg, jobs=3)
    assert serial == parallel


def test_ensemble_shape_and_payload():
    report = run_ensemble(_small_ensemble(0.5))
    assert report.weeks == 300
    assert len(report.h2) == 5 and len(report.h3) == 5
    assert report.h1.averaged.df == 119
    assert report.h4.expected_frequency == pytest.approx(0.2)
    assert report.h5.expected_frequency == pytest.approx(0.05)
    assert 0 <= report.h4.replications_above_expected <= 12  # the ensemble's replications
    assert report.generator == "circulant"
    assert [line.averaged.df for line in (*report.h2, *report.h3)] == [4] * 10
    assert [line.averaged.observed["day"] for line in report.h2] == list(range(5))
    assert [line.averaged.observed["position"] for line in report.h3] == list(range(5))
    # recount: each line rejects in as many replications as its column has p-values below each level
    p_values = np.array([p for _, p in fgn_replications(0.5, 1500, 5, 77, range(12))])
    lines = [report.h1, *report.h2, *report.h3, report.h4, report.h5]
    assert len(lines) == p_values.shape[1]
    for line, column in zip(lines, p_values.T):
        r = line.rejections
        assert [r.at_10, r.at_05, r.at_01] == [int((column < a).sum()) for a in SIGNIFICANCE_LEVELS]


@pytest.mark.parametrize(("length", "reps", "sizes"), [(10_000, 13, [6, 6, 1]), (70_000, 3, [1, 1, 1])])
def test_blocked_replications_equal_single_ones_under_any_jobs(length, reps, sizes, monkeypatch):
    cfg = _small_ensemble(0.7, reps=reps, length=length, seed=31)
    reports = [run_ensemble(cfg, jobs=jobs) for jobs in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]

    drawn = []

    def recording_block(spectrum, normals, hurst, rngs):
        drawn.append(len(rngs))
        return _fgn_block(spectrum, normals, hurst, rngs)

    monkeypatch.setattr(fgn, "_fgn_block", recording_block)
    replicate = partial(fgn_replications, 0.7, length, 5, 31)
    replicate(range(reps))
    assert drawn == sizes
    # a replication does not depend on how its indices are split into calls,
    # at n = 10,000 even where the split falls inside a block of 6
    whole = replicate(range(13))
    split = replicate(range(4)) + replicate(range(4, 13))
    assert drawn[len(sizes) :] == ([6, 6, 1, 4, 6, 3] if length == 10_000 else [1] * 26)
    assert len(whole) == len(split) == 13
    for index, ((counts, p_values), (split_counts, split_p_values)) in enumerate(zip(whole, split)):
        assert counts.shape == (120,) and p_values.shape == (13,)
        assert counts.tobytes() == split_counts.tobytes(), index
        assert p_values.tobytes() == split_p_values.tobytes(), index


def test_ensemble_memory_stays_near_one_block():
    # a block's spectrum and transform are about 1 MiB each at n = 10,000
    cfg = EnsembleConfig(base=FgnConfig(hurst=0.5, length=10_000), replications=50, master_seed=2)
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


def test_drawing_many_blocks_holds_no_more_memory_than_one():
    # each block's transform, and every row view of it, is released before
    # the next block is drawn; 44 more results hold about 0.06 MB
    replicate = partial(fgn_replications, 0.5, 10_000, 5, 2)
    replicate(range(50))  # warm: the scale and the binomial tails are cached
    peaks = {}
    for reps in (50, 6):
        tracemalloc.start()
        try:
            replicate(range(reps))
            peaks[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[50] - peaks[6] < 300_000, peaks


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and units and maps in this process."""

    def __init__(self, pools: list, max_workers: int):
        self.max_workers = max_workers
        self.units = None
        pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units, chunksize=1):
        self.units = list(units)
        return map(fn, self.units)


@pytest.fixture
def pools(monkeypatch):
    """The pools run_replications starts, on a stand-in two-CPU machine."""
    made = []
    monkeypatch.setattr(fgn, "ProcessPoolExecutor", partial(_RecordingPool, made))
    monkeypatch.setattr(fgn, "_available_cpus", lambda: 2)
    return made


def test_available_cpus_reads_the_affinity_mask():
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _available_cpus() == expected >= 1


def test_pool_starts_at_most_one_worker_per_available_cpu(pools, caplog):
    with caplog.at_level(logging.INFO, logger="ordinal_seasonality.fgn"):
        assert run_replications(str, range(1000), 1000) == [str(i) for i in range(1000)]
        assert [pool.max_workers for pool in pools] == [2]
        assert [record.getMessage() for record in caplog.records] == [
            "jobs 1000: at most 2 pool workers, one per CPU this process may run on"
        ]
        caplog.clear()
        # at most jobs and at most the units; only a cap by the CPUs is logged
        assert run_replications(str, range(12), 2) == [str(i) for i in range(12)]
        assert run_replications(str, range(3), 3) == ["0", "1", "2"]
        assert run_replications(str, range(1), 3) == ["0"]  # one unit runs in this process
        assert run_replications(str, range(5), 1) == [str(i) for i in range(5)]
        assert [pool.max_workers for pool in pools] == [2, 2, 2]
        assert [record.getMessage() for record in caplog.records] == [
            "jobs 3: at most 2 pool workers, one per CPU this process may run on"
        ]


def test_ensemble_draws_one_share_of_whole_blocks_per_worker(pools, monkeypatch):
    cfg = _small_ensemble(0.7, reps=13, length=10_000, seed=31)
    calls = []

    def recording_replications(*args):
        calls.append(args[-1])
        return fgn_replications(*args)

    monkeypatch.setattr(fgn, "fgn_replications", recording_replications)
    serial = run_ensemble(cfg, jobs=1)
    assert pools == [] and calls == [range(0, 13)]  # one share, so one call
    # jobs above the CPUs neither starts extra workers nor cuts a block of 6 short
    assert run_ensemble(cfg, jobs=1000) == serial
    assert [pool.max_workers for pool in pools] == [2]
    assert pools[0].units == calls[1:] == [range(0, 6), range(6, 13)]
    monkeypatch.setattr(fgn, "_available_cpus", lambda: 8)
    assert run_ensemble(cfg, jobs=1000) == serial
    assert pools[1].max_workers == 3 and pools[1].units == [range(0, 6), range(6, 12), range(12, 13)]
    monkeypatch.setattr(fgn, "_available_cpus", lambda: 1)
    assert run_ensemble(cfg, jobs=2) == serial
    assert len(pools) == 2 and calls[-1] == range(0, 13)  # one CPU: one share, run in this process


def test_jobs_follow_the_whole_number_rule(pools):
    # a whole float runs as its int; no other value reaches the pool planning
    assert run_replications(str, range(3), 2.0) == ["0", "1", "2"]
    assert [pool.max_workers for pool in pools] == [2]
    cfg = _small_ensemble(0.7, reps=13, length=10_000, seed=31)
    assert run_ensemble(cfg, jobs=2.0) == run_ensemble(cfg, jobs=1)
    for jobs, shown in [(1.5, "1.5"), ("2", "'2'")]:
        message = f"^jobs must be a whole number, got {re.escape(shown)}$"
        with pytest.raises(InvalidInputError, match=message):
            run_replications(str, range(3), jobs)
        with pytest.raises(InvalidInputError, match=message):
            run_ensemble(_small_ensemble(0.7, reps=2), jobs=jobs)  # one share


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: replication_rng(-1, 0), "seed must be >= 0, got -1"),
        (lambda: replication_rng(1.5, 0), "seed must be a whole number, got 1.5"),
        (lambda: shuffle_replication(np.arange(20.0), 5, -1, 0), "seed must be >= 0, got -1"),
    ],
    ids=["negative", "fraction", "shuffle"],
)
def test_replication_seeds_follow_the_whole_number_rule(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_replication_rng_reads_a_whole_float_seed_as_its_int():
    draws = [replication_rng(seed, 3).random() for seed in (2, 2.0, np.int64(2))]
    assert draws[0] == draws[1] == draws[2]


def test_ensemble_rejection_rate_minimal_at_half():
    rates = {}
    for hurst in (0.2, 0.5, 0.8):
        report = run_ensemble(
            EnsembleConfig(base=FgnConfig(hurst=hurst, length=5000), replications=40, master_seed=5),
            jobs=2,
        )
        rates[hurst] = report.h1.rejections.at_05
    assert rates[0.5] < rates[0.2]
    assert rates[0.5] < rates[0.8]


def test_ensemble_strong_persistence_always_rejects_h1():
    report = run_ensemble(
        EnsembleConfig(base=FgnConfig(hurst=0.9, length=10_000), replications=30, master_seed=6)
    )
    assert report.h1.rejections.at_01 == 30


def test_ensemble_h5_direction_by_persistence():
    persistent = run_ensemble(
        EnsembleConfig(base=FgnConfig(hurst=0.7, length=10_000), replications=50, master_seed=8),
        jobs=2,
    )
    assert persistent.h5.replications_above_expected >= 40  # >= 80% of 50

    antipersistent = run_ensemble(
        EnsembleConfig(base=FgnConfig(hurst=0.1, length=10_000), replications=50, master_seed=8),
        jobs=2,
    )
    assert antipersistent.h5.mean_observed_frequency < 0.05


# ---------------------------------------------------------------------------
# shuffle replications
# ---------------------------------------------------------------------------


def _shuffle_input(source: str) -> np.ndarray:
    if source == "ties":
        path = Path(__file__).parent / "goldens" / "ties.csv.gz"
        return load_csv(path, column="ret").values
    return np.random.default_rng(3).standard_normal(2000)


def _tests_on(values: np.ndarray, order: int):
    """P-values of the five tests in replication order: H1, H2 rows, H3 columns, H4, H5."""
    dist = count_patterns(values, order=order)
    matrix = position_matrix(dist)
    outcomes = [h1_test(dist), *h2_test(matrix), *h3_test(matrix), h4_test(dist), h5_test(dist)]
    return [outcome.p_value for outcome in outcomes]


@pytest.mark.parametrize("order", [3, 5])
def test_by_test_reads_the_replication_layout(order):
    values = np.random.default_rng(order).standard_normal(1000)
    dist = count_patterns(values, order=order)
    matrix = position_matrix(dist)
    h2 = [outcome.p_value for outcome in h2_test(matrix)]
    h3 = [outcome.p_value for outcome in h3_test(matrix)]
    expected = (h1_test(dist).p_value, h2, h3, h4_test(dist).p_value, h5_test(dist).p_value)
    assert by_test(_tests_on(values, order)) == expected


def _body_input(source: str, order: int) -> np.ndarray:
    if source == "sparse":  # about D!/2 windows, so at least half the patterns are never seen
        windows = (math.factorial(order) + 1) // 2
        return np.random.default_rng(order).standard_normal(windows * order)
    return _shuffle_input(source)


@pytest.mark.parametrize("source", ["tie-free", "ties", "sparse"])
@pytest.mark.parametrize("order", range(2, 9))
def test_p_values_body_equals_the_public_tests_bit_for_bit(source, order):
    values = _body_input(source, order)
    dist = count_patterns(values, order=order)
    assert (dist.ties_observed > 0) == (source == "ties")
    if source == "sparse":
        assert dist.windows < math.factorial(order)
    expected = np.array(_tests_on(values, order))
    assert _p_values(dist).tobytes() == expected.tobytes()


@pytest.mark.parametrize("source", ["tie-free", "ties"])
def test_shuffle_replication_tests_the_permutation_of_its_stream(source):
    values = _shuffle_input(source)
    original = values.copy()
    results = []
    for index in (0, 1, 7):
        p_values = shuffle_replication(values, 5, 11, index)
        permutation = replication_rng(11, index).permutation(values.size)
        assert p_values.tolist() == _tests_on(values[permutation], 5)
        results.append(p_values)
    assert np.array_equal(values, original)  # the input is shuffled as a copy
    assert all(not np.array_equal(a, b) for a, b in zip(results, results[1:] + results[:1]))


def _exact_size(p_e: float, weeks: int, alpha: float) -> float:
    """Exact size of ``binomial_test`` at ``alpha`` under Binomial(weeks, p_e).

    The size is the binomial mass of the observed counts that it rejects.
    """
    counts = np.arange(weeks + 1)
    region = [binomial_test(p_e, k, weeks).p_value < alpha for k in counts]
    return float(binom.pmf(counts[region], weeks, p_e).sum())


def test_family_rejections_of_untied_shuffles_match_the_exact_binomial_size():
    # distinct values: the patterns of shuffled non-overlapping weeks are
    # i.i.d. uniform, so H4 counts Binomial(W, 1/5) and H5 Binomial(W, 1/20)
    values = np.random.default_rng(3).standard_normal(2000)
    weeks, reps = 400, 400
    p_values = np.stack(run_replications(partial(shuffle_replication, values, 5, 11), range(reps), 1))
    h4, h5 = tally_rejections(p_values)[-2:]
    for rejections, p_e in ((h4, 1 / 5), (h5, 1 / 20)):
        size = _exact_size(p_e, weeks, 0.05)
        low, high = binom.interval(0.999, reps, size)
        assert low <= rejections.at_05 <= high, (p_e, size, rejections.at_05)
    # the exact test's true size at nominal 5%
    assert _exact_size(1 / 5, weeks, 0.05) == pytest.approx(0.0455, abs=1e-4)
    assert _exact_size(1 / 20, weeks, 0.05) == pytest.approx(0.0498, abs=1e-4)
    # and it never exceeds the nominal level
    for w in (1, 10, 50, 200, 400, 2440, 2710):
        for p_e in (1 / 5, 1 / 20):
            for alpha in SIGNIFICANCE_LEVELS:
                assert _exact_size(p_e, w, alpha) <= alpha, (w, p_e, alpha)
