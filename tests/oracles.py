"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from scratch (adaptive Simpson
quadrature over hand-coded densities, brute-force enumeration, 60-digit
decimal arithmetic, the Hosking recursion, the full-spectrum circulant
draw, the per-node JSON and flat-CSV writers) so that the library code
paths being tested share nothing with the values they are checked
against.  The exceptions are named where they occur.
"""

from __future__ import annotations

import decimal
import json
import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from ordinal_seasonality.cli import format_float
from ordinal_seasonality.fgn import fgn_autocovariance


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


@lru_cache(maxsize=None)
def _lexicographic_ids(order: int) -> dict[tuple[int, ...], int]:
    return {perm: k for k, perm in enumerate(sorted(permutations(range(order))), start=1)}


def lexicographic_rank(digits, order: int) -> int:
    """1-based rank of a permutation by exhaustive enumeration.

    All permutations of the order are sorted once and looked up.
    """
    return _lexicographic_ids(order)[tuple(digits)]


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


def fgn_circulant_full_spectrum(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-sigma fGn by circulant embedding over the full 2n Hermitian spectrum.

    Builds all 2n spectral entries from two blocks of n standard normals
    and takes one complex FFT.  The autocovariance is the library's
    ``fgn_autocovariance``, checked on its own against the decimal oracle:
    the naive closed form loses too many digits at large lags for a 1e-12
    comparison.
    """
    n, m = length, 2 * length
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # circulant first row, gamma(n) at position n
    sqrt_eig = np.sqrt(np.clip(np.fft.fft(row).real, 0.0, None))
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


def _is_table(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and bool(obj.dtype.names)


def _table_rows(table: np.ndarray) -> list[dict]:
    """A 1-D structured array as the list of one dict per row, fields in order."""
    return [dict(zip(table.dtype.names, row)) for row in table.tolist()]


def _emit_table_rows(table: np.ndarray, out: list[str], pad: str, indent: str) -> None:
    """A table as a list of its rows, each row on one line: ``{"key": value, ...}``."""
    rows = _table_rows(table)
    if not rows:
        out.append("[]")
        return
    out.append("[\n")
    inner = pad + indent
    for i, row in enumerate(rows):
        fields = []
        for key, value in row.items():
            text: list[str] = []
            _emit_json(value, text, inner, indent)
            fields.append(json.dumps(key) + ": " + "".join(text))
        out.append(inner + "{" + ", ".join(fields) + "}")
        out.append(",\n" if i < len(rows) - 1 else "\n")
    out.append(pad + "]")


def _emit_json(obj, out: list[str], pad: str, indent: str) -> None:
    if _is_table(obj):
        _emit_table_rows(obj, out, pad, indent)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append("null" if not math.isfinite(obj) else format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        inner = pad + indent
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _emit_json(value, out, inner, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        inner = pad + indent
        for i, value in enumerate(obj):
            out.append(inner)
            _emit_json(value, out, inner, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_by_recursion(obj) -> str:
    """The report JSON writer, one recursive call and one ``json.dumps`` per node.

    Floats go through the library's ``format_float``: the oracle checks the
    layout and escaping, not the float text.  The layout is
    ``json.dumps(indent=2)``'s, except that a 1-D structured array is
    written as the list of its rows, each row on one line.
    """
    out: list[str] = []
    _emit_json(obj, out, "", "  ")
    out.append("\n")
    return "".join(out)


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format_float(value) if math.isfinite(value) else ""
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n\r"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten_for_csv(obj, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if _is_table(obj):
        obj = _table_rows(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten_for_csv(value, path))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            rows.extend(_flatten_for_csv(value, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, _csv_scalar(obj)))
    return rows


def flat_csv_by_recursion(doc) -> str:
    """The flat ``key,value`` CSV writer, one list of (path, value) rows per node.

    Floats go through the library's ``format_float``.  A 1-D structured
    array is first expanded into its list of row dicts.  Unlike the library,
    a value of an unsupported type is written as ``str(value)``.
    """
    lines = ["key,value"]
    for path, value in _flatten_for_csv(doc):
        lines.append(f"{_csv_scalar(path)},{value}")
    return "\n".join(lines) + "\n"
