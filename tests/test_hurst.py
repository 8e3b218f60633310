import numpy as np
import pytest

from ordinal_seasonality.errors import InvalidInputError
from ordinal_seasonality.fgn import FgnConfig, fgn_generate
from ordinal_seasonality.hurst import (
    HurstMethod,
    estimate_hurst,
    expected_rescaled_range,
    window_grid,
)


def _fgn(hurst, seed, length=10_000):
    return fgn_generate(FgnConfig(hurst=hurst, length=length, seed=seed))


# ---------------------------------------------------------------------------
# seeded recovery
# ---------------------------------------------------------------------------


def test_rs_recovers_white_noise():
    assert estimate_hurst(_fgn(0.5, seed=56)).h == pytest.approx(0.5, abs=0.07)


def test_rs_recovers_persistent():
    assert estimate_hurst(_fgn(0.7, seed=56)).h == pytest.approx(0.7, abs=0.07)


def test_rs_recovers_strong_persistence():
    assert estimate_hurst(_fgn(0.9, seed=56)).h == pytest.approx(0.9, abs=0.08)


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.9])
def test_dfa_recovers_grid(hurst):
    estimate = estimate_hurst(_fgn(hurst, seed=17), method=HurstMethod.DFA)
    assert estimate.h == pytest.approx(hurst, abs=0.07)


def test_mean_estimates_increase_with_h():
    means = []
    for hurst in (0.2, 0.5, 0.8):
        values = [
            estimate_hurst(_fgn(hurst, seed=s, length=4096)).h for s in range(20)
        ]
        means.append(np.mean(values))
    assert means[0] < means[1] < means[2]


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_scale_invariance():
    series = _fgn(0.6, seed=9)
    base = estimate_hurst(series)
    scaled = estimate_hurst(1234.5 * series.values)
    assert scaled.h == pytest.approx(base.h, abs=1e-12)


def test_shift_invariance():
    series = _fgn(0.6, seed=9)
    base = estimate_hurst(series)
    shifted = estimate_hurst(series.values + 42.0)
    assert shifted.h == pytest.approx(base.h, abs=1e-9)


def test_dfa_scale_invariance():
    series = _fgn(0.4, seed=13)
    base = estimate_hurst(series, method=HurstMethod.DFA)
    scaled = estimate_hurst(0.001 * series.values, method=HurstMethod.DFA)
    assert scaled.h == pytest.approx(base.h, abs=1e-12)


# ---------------------------------------------------------------------------
# validation and structure
# ---------------------------------------------------------------------------


def test_constant_series_is_degenerate():
    with pytest.raises(InvalidInputError, match="^constant series has no Hurst exponent"):
        estimate_hurst(np.ones(1000))


def test_short_series_rejected():
    with pytest.raises(InvalidInputError):
        estimate_hurst(np.random.default_rng(0).standard_normal(30))


@pytest.mark.parametrize("length", [63, 64, 67])
def test_series_without_a_window_above_16_rejected(length):
    # windows run from 16 to length/4, which is at most 16 here
    with pytest.raises(InvalidInputError):
        estimate_hurst(np.random.default_rng(0).standard_normal(length))


@pytest.mark.parametrize("method", list(HurstMethod))
def test_a_fit_needs_216_points(method):
    # the fourth grid size is 54 = 16 * 1.5**3, and a size needs length // 4 >= it
    assert (len(window_grid(215)), len(window_grid(216))) == (3, 4)
    x = np.random.default_rng(0).standard_normal(216)
    message = "^series of length 215 is too short: need at least 216 points for 4 window sizes$"
    with pytest.raises(InvalidInputError, match=message):
        estimate_hurst(x[:215], method=method)
    assert estimate_hurst(x, method=method).window_sizes == (16, 24, 36, 54)


def _blocks_of_16(length):
    # every 16-point block is constant, and the profile is linear within it
    return np.repeat(np.tile([1.0, -1.0], length // 32), 16)


@pytest.mark.parametrize("method", list(HurstMethod))
def test_window_sizes_without_a_statistic_are_left_out(method):
    # R/S: every block of 16 is constant; DFA: its profile leaves no residual
    estimate = estimate_hurst(_blocks_of_16(4096), method=method)
    assert estimate.window_sizes == tuple(window_grid(4096)[1:].tolist())
    assert len(estimate.fit_points) == 10
    with pytest.raises(InvalidInputError, match="^only 3 usable window sizes; need 4$"):
        estimate_hurst(_blocks_of_16(256), method=method)


def test_estimate_structure():
    estimate = estimate_hurst(_fgn(0.5, seed=3))
    assert len(estimate.fit_points) == len(estimate.window_sizes) >= 8
    assert all(b > a for a, b in zip(estimate.window_sizes, estimate.window_sizes[1:]))
    assert 0.0 <= estimate.r_squared <= 1.0
    assert estimate.r_squared > 0.95


def test_window_grid_geometric():
    grid = window_grid(10_000)
    assert grid[0] == 16
    assert grid[-1] <= 2500
    assert len(grid) >= 8
    ratios = grid[1:] / grid[:-1]
    assert (ratios > 1.2).all() and (ratios < 1.8).all()


def test_window_grid_strictly_increases():
    full = window_grid(10**7)
    assert full[0] == 16 and (np.diff(full) > 0).all()
    # a grid changes only where length // 4 reaches a size: check both sides of each
    lengths = np.concatenate([[68, 10**7], 4 * full - 1, 4 * full])
    for n in lengths[(lengths >= 68) & (lengths <= 10**7)].tolist():
        assert np.array_equal(window_grid(n), full[full <= n // 4]), n


def test_method_is_a_member_or_its_value():
    x = fgn_generate(FgnConfig(hurst=0.7, length=2000, seed=4)).values
    for method in HurstMethod:
        by_member, by_value = estimate_hurst(x, method=method), estimate_hurst(x, method=method.value)
        assert by_value == by_member
        assert by_value.method is method
    assert estimate_hurst(x, method="rs").h != estimate_hurst(x, method="dfa").h
    with pytest.raises(InvalidInputError, match=r"^unknown Hurst method 'whittle'; choose from 'rs', 'dfa'$"):
        estimate_hurst(x, method="whittle")


def test_expected_rescaled_range_asymptotics():
    # for wide windows E[R/S] approaches sqrt(pi * n / 2)
    import math

    for n in (500, 2000):
        assert expected_rescaled_range(n) == pytest.approx(
            math.sqrt(math.pi * n / 2.0), rel=0.05
        )


def test_expected_rescaled_range_matches_simulation():
    # Monte-Carlo check of the white-noise calibration curve
    rng = np.random.default_rng(123)
    for n in (8, 16, 64):
        stats = []
        for _ in range(4000):
            seg = rng.standard_normal(n)
            seg = seg - seg.mean()
            profile = np.cumsum(seg)
            spread = profile.max() - profile.min()
            sd = seg.std(ddof=1)
            if sd > 0:
                stats.append(spread / sd)
        assert np.mean(stats) == pytest.approx(expected_rescaled_range(n), rel=0.02)
