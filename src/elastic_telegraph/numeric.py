"""Adaptive quadrature and small statistical utilities.

The integrator is a bisecting Gauss-Kronrod 7-15 scheme with a
worst-panel-first heap, vectorized over the 15 nodes of each panel.
Semi-infinite ranges are covered by width-doubling windows with a
geometric envelope on the unexplored tail; that bound is folded into the
reported error.  Integrands must accept ndarray arguments and should have
eventually decaying tails when integrated to infinity.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK dqk15 values).
_XGK = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.0630920926299786,
        0.0229353220105292,
    ]
)
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
        0.3818300505051189,
        0.2797053914892767,
        0.1294849661688697,
    ]
)


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one quadrature run."""

    value: float
    abs_error_estimate: float
    evaluations: int
    tail_bound: float = 0.0


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """One Kronrod panel on [a, b]: returns (value, error_estimate)."""
    c = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    fv = np.asarray(f(c + hl * _XGK), dtype=float)
    if fv.shape != (15,):
        raise DomainError("integrate: integrand must return one value per input node")
    resk = float(_WGK @ fv)
    resg = float(_WG @ fv[_GAUSS_IDX])
    reskh = 0.5 * resk  # weighted mean of f over the panel
    resasc = float(_WGK @ np.abs(fv - reskh)) * abs(hl)
    err = abs((resk - resg) * hl)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    value = resk * hl
    # never report an error below the roundoff floor of the panel value
    return value, max(err, abs(value) * 1e-16)


def _integrate_finite(f, a, b, tol, max_panels) -> QuadResult:
    val, err = _panel(f, a, b)
    evals = 15
    n_panels = 1
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    total_val, total_err = val, err
    while total_err > tol * max(1.0, abs(total_val)) and n_panels < max_panels:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        width = pb - pa
        if width <= 1e-15 * (abs(pa) + abs(pb) + 1.0):
            # cannot bisect further in double precision; put it back and stop
            heapq.heappush(heap, (neg, seq + 1, pa, pb, pval, perr))
            break
        mid = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, mid)
        v2, e2 = _panel(f, mid, pb)
        evals += 30
        n_panels += 1
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        seq += 1
        heapq.heappush(heap, (-e1, seq, pa, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, pb, v2, e2))
    # re-sum from the heap to shed accumulated cancellation in the totals
    total_val = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    if total_err > tol * max(1.0, abs(total_val)):
        raise ConvergenceError("integrate", total_err, evals)
    return QuadResult(total_val, total_err, evals, 0.0)


def _integrate_semi(f, a, tol, max_panels) -> QuadResult:
    total = 0.0
    err = 0.0
    evals = 0
    window = 1.0
    t0 = a
    vals: list[float] = []
    for j in range(64):
        part = _integrate_finite(f, t0, t0 + window, tol / 64.0, max_panels)
        total += part.value
        err += part.abs_error_estimate
        evals += part.evaluations
        vals.append(abs(part.value))
        scale = max(1.0, abs(total))
        if j >= 1:
            prev, cur = vals[-2], vals[-1]
            if prev > 0.0 and 0.0 < cur < 0.75 * prev:
                ratio = cur / prev
                tail = cur * ratio / (1.0 - ratio)
                if tail <= max(1e-16 * scale, 0.01 * tol * scale):
                    return QuadResult(total, err + tail, evals, tail)
            if total != 0.0 and cur <= 1e-18 * scale and prev <= 1e-18 * scale:
                tail = 2.0 * max(cur, prev)
                return QuadResult(total, err + tail, evals, tail)
        t0 += window
        window *= 2.0
    raise ConvergenceError("integrate: semi-infinite tail did not decay", vals[-1], evals)


def integrate(
    f: Callable, a: float, b: float, tol: float = 1e-10, max_panels: int = 4096
) -> QuadResult:
    """Integrate ``f`` over [a, b]; ``b`` may be ``numpy.inf``.

    ``tol`` is interpreted relative to ``max(1, |integral|)``, so it acts
    as an absolute tolerance for O(1) integrals.  Failure to meet it
    within the panel budget raises :class:`ConvergenceError`.
    """
    a = float(a)
    b = float(b)
    if not math.isfinite(a):
        raise DomainError(f"integrate: lower limit must be finite, got {a}")
    if not (tol > 0.0):
        raise DomainError(f"integrate: tol must be positive, got {tol}")
    if math.isinf(b):
        if b < 0:
            raise DomainError("integrate: upper limit -inf is not supported")
        return _integrate_semi(f, a, tol, max_panels)
    if not b > a:
        if b == a:
            return QuadResult(0.0, 0.0, 0, 0.0)
        raise DomainError(f"integrate: requires b >= a, got a={a}, b={b}")
    return _integrate_finite(f, a, b, tol, max_panels)


def numeric_mgf(pdf: Callable, s: float, tol: float = 1e-10) -> float:
    """Moment generating function of a density on (0, inf) by quadrature.

    Divergence (``s`` at or above the decay rate of ``pdf``) surfaces as a
    :class:`ConvergenceError` from the tail windows.
    """
    s = float(s)
    return integrate(lambda y: np.exp(s * np.asarray(y, float)) * pdf(y), 0.0, np.inf, tol).value


def numeric_moment(pdf: Callable, n: int, tol: float = 1e-10) -> float:
    """n-th raw moment of a density on (0, inf) by quadrature."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"numeric_moment: n must be an integer >= 0, got {n!r}")
    return integrate(lambda y: np.asarray(y, float) ** n * pdf(y), 0.0, np.inf, tol).value


def ks_statistic(samples, cdf: Callable) -> float:
    """Kolmogorov-Smirnov sup distance between a sample and a CDF callable."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.shape[0]
    if n == 0:
        raise DomainError("ks_statistic: empty sample")
    fs = np.asarray(cdf(xs), dtype=float)
    if fs.shape != xs.shape:
        fs = np.array([float(cdf(v)) for v in xs])
    i = np.arange(n, dtype=float)
    d_plus = np.max((i + 1.0) / n - fs)
    d_minus = np.max(fs - i / n)
    return float(max(d_plus, d_minus))


def cdf_derivative(
    cdf: Callable,
    x,
    h: float | None = None,
    lo: float | None = None,
    hi: float | None = None,
):
    """Density value from a CDF by Richardson-extrapolated central differences.

    ``h`` defaults to a scale-aware step and shrinks automatically so the
    stencil stays inside (lo, hi) when bounds are given.  ``x`` is a scalar
    (``cdf`` then gets scalars and the result is a float) or an array, in
    which case ``cdf`` must accept arrays: it is called four times, once per
    stencil offset, with all points at once.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-3 * np.maximum(1.0, np.abs(x))
    if lo is not None:
        h = np.minimum(h, 0.45 * (x - lo))
    if hi is not None:
        h = np.minimum(h, 0.45 * (hi - x))
    if not np.all(h > 0.0):
        raise DomainError(f"cdf_derivative: x={x} leaves no room inside the bounds")

    def diff(step):
        return (np.asarray(cdf(x + step), float) - np.asarray(cdf(x - step), float)) / (2.0 * step)

    d1 = diff(h)
    d2 = diff(0.5 * h)
    out = (4.0 * d2 - d1) / 3.0
    return float(out) if np.ndim(out) == 0 else out
