"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import ks_2samp

import ordinal_seasonality.cli as cli
from ordinal_seasonality.fgn import (
    EnsembleConfig,
    FgnConfig,
    fgn_autocovariance,
    fgn_generate,
    run_ensemble,
)
from ordinal_seasonality.fixtures import (
    NYSE_POSITION_MATRIX,
    NYSE_SHUFFLED_POSITION_MATRIX,
    nyse_fixture_distribution,
    nyse_shuffled_distribution,
    series_from_distribution,
)
from ordinal_seasonality.hurst import estimate_hurst
from ordinal_seasonality.patterns import PatternFamily, pattern_family
from ordinal_seasonality.stats import chi2_sf, normal_sf
from oracles import chi2_sf_quadrature, fgn_hosking, normal_sf_quadrature

JOBS = 4

ROW_Q = (22.78967, 17.94834, 9.92989, 12.66052, 16.74908)
COL_Q = (36.21402, 11.25092, 11.56089, 9.12177, 11.92989)
ROW_STARS = ("***", "***", "**", "**", "***")
COL_STARS = ("***", "**", "**", "*", "**")
SHUFFLED_ROW_Q = (1.91393, 1.95082, 2.24590, 1.32787, 5.75410)
SHUFFLED_COL_Q = (4.47951, 2.09016, 2.69672, 1.49590, 2.43033)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    from conftest import ACCEPTANCE_LINES

    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} [{name}]: {status}{suffix}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {number} {name}: {detail}"


def _write_series_csv(path, series) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ret\n")
        for value in series.values:
            handle.write(f"{float(value)!r}\n")


def _analyze_document(tmp_path, dist, stem: str) -> tuple[dict, float]:
    csv_path = tmp_path / f"{stem}.csv"
    out_path = tmp_path / f"{stem}.json"
    _write_series_csv(csv_path, series_from_distribution(dist))
    start = time.perf_counter()
    code = cli.main(
        [
            "analyze",
            "--input", str(csv_path),
            "--column", "ret",
            "--weeks", "block",
            "--format", "json",
            "--output", str(out_path),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    return json.loads(out_path.read_text()), elapsed


def test_criterion_1_whole_period_fixture_bit_exact(tmp_path):
    doc, elapsed = _analyze_document(tmp_path, nyse_fixture_distribution(), "whole")
    section = doc["sections"][0]
    matrix = np.array([row["counts"] for row in section["position_matrix"]["rows"]])
    rows = section["position_matrix"]["rows"]
    columns = section["position_matrix"]["columns"]

    cells_exact = np.array_equal(matrix, NYSE_POSITION_MATRIX)
    q_ok = all(
        abs(rows[i]["statistic"] - ROW_Q[i]) < 1e-5 for i in range(5)
    ) and all(abs(columns[j]["statistic"] - COL_Q[j]) < 1e-5 for j in range(5))
    stars_ok = tuple(r["stars"] for r in rows) == ROW_STARS and (
        tuple(c["stars"] for c in columns) == COL_STARS
    )
    fast = elapsed < 1.0
    _report(
        1,
        "whole-period fixture bit-exact",
        cells_exact and q_ok and stars_ok and fast,
        f"25 cells exact={cells_exact}, Q within 1e-5={q_ok}, stars={stars_ok}, {elapsed:.2f}s",
    )


def test_criterion_2_shuffled_fixture(tmp_path):
    doc, elapsed = _analyze_document(tmp_path, nyse_shuffled_distribution(), "shuffled")
    section = doc["sections"][0]
    matrix = np.array([row["counts"] for row in section["position_matrix"]["rows"]])
    rows = section["position_matrix"]["rows"]
    columns = section["position_matrix"]["columns"]

    cells_exact = np.array_equal(matrix, NYSE_SHUFFLED_POSITION_MATRIX)
    q_ok = all(
        abs(rows[i]["statistic"] - SHUFFLED_ROW_Q[i]) < 1e-5 for i in range(5)
    ) and all(abs(columns[j]["statistic"] - SHUFFLED_COL_Q[j]) < 1e-5 for j in range(5))
    none_rejected = not any(r["reject_10"] for r in rows) and not any(
        c["reject_10"] for c in columns
    )
    fast = elapsed < 1.0
    _report(
        2,
        "shuffled fixture",
        cells_exact and q_ok and none_rejected and fast,
        f"Q within 1e-5={q_ok}, no 10% rejections={none_rejected}, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def desk_scale_simulation():
    reports = {}
    start = time.perf_counter()
    for hurst in (0.1, 0.5, 0.8, 0.9):
        cfg = EnsembleConfig(
            base=FgnConfig(hurst=hurst, length=10_000),
            replications=200,
            master_seed=20240809,
        )
        reports[hurst] = run_ensemble(cfg, jobs=JOBS)
    return reports, time.perf_counter() - start


def test_criterion_3_desk_scale_rejection_rates(desk_scale_simulation):
    reports, elapsed = desk_scale_simulation
    at_half = reports[0.5].h1.rejections.at_05
    away = {h: reports[h].h1.rejections.at_05 for h in (0.1, 0.8, 0.9)}
    null_ok = at_half <= 20  # <= 10% of 200
    power_ok = all(count >= 198 for count in away.values())  # >= 99%
    fast = elapsed < 300.0
    _report(
        3,
        "desk-scale H1 rejection rates",
        null_ok and power_ok and fast,
        f"H=0.5: {at_half}/200, others {away}, {elapsed:.1f}s",
    )


def test_criterion_4_family_direction(desk_scale_simulation):
    reports, _ = desk_scale_simulation
    strong = reports[0.9]
    null = reports[0.5]
    mean_h4 = strong.h4.mean_observed_frequency
    h5_above = strong.h5.replications_above_expected
    h4_null_rate = null.h4.rejections.at_05 / 200.0
    h5_null_rate = null.h5.rejections.at_05 / 200.0
    ok = (
        mean_h4 > 0.215
        and h5_above >= 190  # 95% of 200
        and 0.02 <= h4_null_rate <= 0.12
        and 0.02 <= h5_null_rate <= 0.12
    )
    _report(
        4,
        "family-frequency direction",
        ok,
        f"H4 mean p_o={mean_h4:.5f}, H5 above p_e={h5_above}/200, "
        f"null rates H4={h4_null_rate:.3f} H5={h5_null_rate:.3f}",
    )


def test_criterion_5_family_oracle_equivalence():
    perms = sorted(permutations(range(5)))
    largest = {i + 1 for i, p in enumerate(perms) if p[-1] == 0}
    worst_best = {i + 1 for i, p in enumerate(perms) if p[0] == 0 and p[-1] == 4}
    expected_largest = {34, 36, 40, 42, 46, 48, 58, 60, 64, 66, 70, 72,
                        82, 84, 88, 90, 94, 96, 106, 108, 112, 114, 118, 120}
    ok = (
        pattern_family(PatternFamily.MONDAY_LARGEST, 5) == largest == expected_largest
        and pattern_family(PatternFamily.MONDAY_WORST_FRIDAY_BEST, 5)
        == worst_best
        == {1, 3, 7, 9, 13, 15}
        and len(largest) == 24
        and len(worst_best) == 6
    )
    _report(5, "pattern-family oracle equivalence", ok)


def test_criterion_6_fgn_covariance_suite():
    start = time.perf_counter()
    worst = 0.0
    length = 1_000_000
    for hurst in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        x = fgn_generate(FgnConfig(hurst=hurst, length=length, seed=1000 + int(10 * hurst))).values
        for lag in range(1, 6):
            m = length - lag
            sample = float((x[:-lag] * x[lag:]).mean())
            target = float(fgn_autocovariance(hurst, [lag])[0])
            j = np.arange(-m + 1, m)
            weights = m - np.abs(j)
            g = fgn_autocovariance(hurst, j)
            variance = float(
                (weights * (g**2 + fgn_autocovariance(hurst, j + lag) * fgn_autocovariance(hurst, j - lag))).sum()
            ) / m**2
            ratio = abs(sample - target) / math.sqrt(variance)
            worst = max(worst, ratio)

    circ = fgn_generate(FgnConfig(hurst=0.7, length=10_000, seed=501)).values
    hosk = fgn_hosking(10_000, 0.7, np.random.default_rng(502))
    ks = ks_2samp(circ, hosk)
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and ks.pvalue > 0.01 and elapsed < 120.0
    _report(
        6,
        "fGn covariance property suite",
        ok,
        f"worst |dev|/se={worst:.2f}, KS p={ks.pvalue:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_hurst_calibration():
    start = time.perf_counter()
    grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    means = {}
    for hurst in grid:
        estimates = [
            estimate_hurst(
                fgn_generate(FgnConfig(hurst=hurst, length=10_000, seed=7000 + 100 * int(10 * hurst) + s))
            ).h
            for s in range(100)
        ]
        means[hurst] = float(np.mean(estimates))
    elapsed = time.perf_counter() - start
    centered = all(abs(means[h] - h) <= 0.05 for h in (0.3, 0.5, 0.7))
    ordered = all(
        means[a] < means[b] for a, b in zip(grid, grid[1:])
    )
    ok = centered and ordered and elapsed < 120.0
    _report(
        7,
        "Hurst estimator calibration",
        ok,
        "means " + ", ".join(f"{h}:{means[h]:.3f}" for h in (0.3, 0.5, 0.7)) + f", {elapsed:.1f}s",
    )


def test_criterion_8_special_function_oracle():
    xs = (0.3, 1.0, 2.5, 5.0, 9.48773, 20.0, 50.0, 119.0, 157.8, 250.0, 375.0, 500.0)
    worst = 0.0
    for df in (1, 2, 4, 10, 119):
        for x in xs:
            worst = max(worst, abs(chi2_sf(x, df) - chi2_sf_quadrature(x, df)))
    for z in (-8.0, -4.0, -1.64485, -0.5, 0.0, 0.5, 1.64485, 4.0, 8.0):
        worst = max(worst, abs(normal_sf(z) - normal_sf_quadrature(z)))
    ok = worst <= 1e-6
    _report(8, "special-function oracle", ok, f"worst abs diff={worst:.2e}")


def test_criterion_9_jobs_determinism(tmp_path):
    outputs = []
    for jobs in (1, 8):
        out_path = tmp_path / f"sim-jobs{jobs}.json"
        code = cli.main(
            [
                "simulate",
                "--hurst", "0.3,0.7",
                "--length", "3000",
                "--reps", "24",
                "--seed", "99",
                "--jobs", str(jobs),
                "--output", str(out_path),
            ]
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(9, "simulate determinism across --jobs", ok, f"{len(outputs[0])} bytes")
