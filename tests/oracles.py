"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from scratch (adaptive Simpson
quadrature over hand-coded densities, brute-force enumeration, 60-digit
decimal arithmetic, the Hosking recursion) so that the library code paths
being tested share nothing with the values they are checked against.
"""

from __future__ import annotations

import decimal
import math
from itertools import permutations

import numpy as np


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Classic recursive adaptive Simpson integration of f over [a, b]."""

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = f(lmid)
        frmid = f(rmid)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = eps / 2.0
        return recurse(lo, mid, flo, flmid, fmid, left, half, depth + 1) + recurse(
            mid, hi, fmid, frmid, fhi, right, half, depth + 1
        )

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = simpson(a, b, fa, fmid, fb)
    return recurse(a, b, fa, fmid, fb, whole, tol, 0)


def chi2_pdf(x: float, df: int) -> float:
    """Chi-squared density written directly from its log form."""
    if x <= 0.0:
        return 0.0
    half = df / 2.0
    log_pdf = (half - 1.0) * math.log(x) - x / 2.0 - half * math.log(2.0) - math.lgamma(half)
    return math.exp(log_pdf)


def _piecewise_simpson(f, points, tol: float) -> float:
    """Sum adaptive Simpson over consecutive segments.

    Splitting at scale-relevant breakpoints keeps the initial probes from
    straddling a sharp density peak and accepting a spurious zero.
    """
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        if hi > lo:
            total += adaptive_simpson(f, lo, hi, tol=tol)
    return total


def chi2_sf_quadrature(x: float, df: int, tol: float = 1e-10) -> float:
    """Upper-tail chi-squared probability via adaptive quadrature."""
    if x <= 0.0:
        return 1.0
    # integrate far enough that the remaining mass is far below tol
    upper = max(x, df) + 60.0 * math.sqrt(2.0 * df) + 60.0
    anchors = [df * s for s in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0)]
    points = sorted({x, upper, *(a for a in anchors if x < a < upper)})
    return _piecewise_simpson(lambda t: chi2_pdf(t, df), points, tol)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_sf_quadrature(z: float, tol: float = 1e-10) -> float:
    """Upper-tail standard normal probability via adaptive quadrature."""
    upper = max(z, 0.0) + 40.0
    points = sorted({z, upper, *(a for a in (-4.0, -2.0, 0.0, 2.0, 4.0) if z < a < upper)})
    return _piecewise_simpson(normal_pdf, points, tol)


def lexicographic_rank(digits, order: int) -> int:
    """1-based rank of a permutation by exhaustive enumeration."""
    return sorted(permutations(range(order))).index(tuple(digits)) + 1


def family_ids_by_enumeration(order: int, predicate) -> set[int]:
    """Pattern ids whose digit tuple satisfies the predicate."""
    return {
        i + 1
        for i, perm in enumerate(sorted(permutations(range(order))))
        if predicate(perm)
    }


def position_counts_by_loop(counts, order: int) -> np.ndarray:
    """Day-by-position accumulation, one pattern and one day at a time."""
    counts = np.asarray(counts, dtype=float)
    a = np.zeros((order, order), dtype=float)
    for k, perm in enumerate(permutations(range(order))):
        c = counts[k]
        if c:
            for j, i in enumerate(perm):
                a[i, j] += c
    return a


def fgn_autocovariance_decimal(hurst: float, lag: int, digits: int = 60) -> float:
    """Unit-sigma fGn autocovariance at one lag in ``digits``-digit decimal arithmetic.

    The second difference of k^{2H} cancels about 2*log10(k) digits, which
    60 digits absorb at any lag a float array can index.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        two_h = 2 * decimal.Decimal(hurst)

        def power(x: int) -> decimal.Decimal:
            return (two_h * decimal.Decimal(x).ln()).exp() if x > 0 else decimal.Decimal(0)

        k = abs(int(lag))
        return float((power(k + 1) - 2 * power(k) + power(abs(k - 1))) / 2)


def fgn_hosking(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact unit-sigma fGn by the Hosking (Durbin-Levinson) recursion, O(n^2).

    Computes its own autocovariance from the textbook closed form, so it
    shares nothing with the library's circulant sampler.
    """
    k = np.arange(length, dtype=float)
    two_h = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
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
