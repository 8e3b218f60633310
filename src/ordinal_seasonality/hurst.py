"""Hurst exponent estimation via rescaled range (R/S) and DFA.

The R/S route regresses the log rescaled range against log window size
over a geometric grid of non-overlapping window sizes.  Raw R/S is known
to be biased on finite samples, so the statistic is normalized by the
expected R/S of an i.i.d. Gaussian series of the same window size
(Anis-Lloyd expectation with the (n - 1/2)/n finite correction); the
normalized statistic scales like w^H with the white-noise finite-size
curve divided out.  DFA uses order-1 detrending of the integrated profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

MIN_WINDOW = 16  # cuts the small-window transient that drags estimates toward 0.5
MIN_FIT_POINTS = 4
GRID_RATIO = 1.5


class HurstMethod(Enum):
    RS = "rs"
    DFA = "dfa"


@dataclass(frozen=True)
class HurstEstimate:
    """Fitted exponent with the log-log points behind it."""

    h: float
    method: HurstMethod
    r_squared: float
    window_sizes: tuple[int, ...]
    fit_points: tuple[tuple[float, float], ...]


def window_grid(length: int) -> np.ndarray:
    """Geometric grid of integer window sizes from 16 to ``length // 4``, inclusive.

    The sizes strictly increase: for w >= 16, round(1.5 w) - round(w) >= 7.
    """
    sizes = []
    w = float(MIN_WINDOW)
    while round(w) <= length // 4:
        sizes.append(int(round(w)))
        w *= GRID_RATIO
    return np.asarray(sizes, dtype=int)


@lru_cache(maxsize=256)
def expected_rescaled_range(window: int) -> float:
    """E[R/S] of an i.i.d. Gaussian window (Anis-Lloyd, finite-corrected)."""
    n = int(window)
    if n < 2:
        raise InvalidInputError("window must be >= 2")
    i = np.arange(1, n)
    tail_sum = float(np.sqrt((n - i) / i).sum())
    log_ratio = math.lgamma((n - 1) / 2.0) - math.lgamma(n / 2.0)
    return (n - 0.5) / n * math.exp(log_ratio) / math.sqrt(math.pi) * tail_sum


def _rescaled_range(values: np.ndarray, window: int) -> float | None:
    """Mean R/S over the non-overlapping blocks of one window size.

    :func:`estimate_hurst` caps the window at a quarter of the series, so
    there are at least four blocks.  A block with a positive std has a
    non-constant profile, hence a positive range, so the mean is positive.
    """
    blocks = values.size // window
    segs = values[: blocks * window].reshape(blocks, window)
    segs = segs - segs.mean(axis=1, keepdims=True)
    profile = np.cumsum(segs, axis=1)
    ranges = profile.max(axis=1) - profile.min(axis=1)
    stds = segs.std(axis=1, ddof=1)
    ok = stds > 0
    if not ok.any():
        return None
    return float((ranges[ok] / stds[ok]).mean())


def _dfa_fluctuation(profile: np.ndarray, window: int) -> float | None:
    """Root-mean-square order-1 detrended fluctuation at one window size (at least four blocks)."""
    blocks = profile.size // window
    segs = profile[: blocks * window].reshape(blocks, window)
    t = np.arange(window, dtype=float)
    t_center = t - t.mean()
    denom = float((t_center**2).sum())
    seg_means = segs.mean(axis=1, keepdims=True)
    slopes = (segs - seg_means) @ t_center / denom
    residuals = segs - seg_means - slopes[:, None] * t_center[None, :]
    mean_sq = (residuals**2).mean()
    if mean_sq <= 0:
        return None
    return float(math.sqrt(mean_sq))


def estimate_hurst(series, method: HurstMethod = HurstMethod.RS) -> HurstEstimate:
    """Estimate the Hurst exponent of a return series.

    Window sizes grow geometrically (ratio 1.5) from 16 to length/4; the
    exponent is the least-squares slope of the log statistic against log
    window size.
    """
    values = np.asarray(getattr(series, "values", series), dtype=float)
    if values.ndim != 1:
        raise InvalidInputError("series must be one-dimensional")
    n = values.size
    if n // 4 <= MIN_WINDOW:
        raise InvalidInputError(f"series of length {n} is too short: need length/4 > {MIN_WINDOW}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("series contains non-finite values")
    if np.ptp(values) == 0:
        raise InvalidInputError(
            "constant series has no Hurst exponent: its range and fluctuation are zero"
        )

    sizes = window_grid(n)
    profile = np.cumsum(values - values.mean()) if method is HurstMethod.DFA else None

    points = []
    kept_sizes = []
    for w in sizes:
        if method is HurstMethod.RS:
            rs = _rescaled_range(values, int(w))
            if rs is None:
                continue
            stat = rs * math.sqrt(w) / expected_rescaled_range(int(w))
        else:
            stat = _dfa_fluctuation(profile, int(w))
            if stat is None:
                continue
        points.append((math.log(w), math.log(stat)))
        kept_sizes.append(int(w))

    if len(points) < MIN_FIT_POINTS:
        raise InvalidInputError(f"only {len(points)} usable window sizes; need {MIN_FIT_POINTS}")

    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    return HurstEstimate(
        h=float(slope),
        method=method,
        r_squared=r_squared,
        window_sizes=tuple(kept_sizes),
        fit_points=tuple((float(a), float(b)) for a, b in points),
    )
