"""Closed-form distribution theory for the elastic-boundary telegraph process.

The process moves at unit speed on [0, inf), alternating independent
exponential upward phases (rate ``lam``) and downward phases (rate ``mu``,
with ``mu < lam`` so excursions return).  Each visit to the origin is
absorbing with probability ``alpha``, reflecting otherwise.  Quantities
covered here, all for a motion started upward at height ``x``:

* ``h_density`` / ``g0_subdensity`` / ``gx_subdensity``: kernels for the
  cumulative-downward-displacement law before the first return.
* ``psi0`` / ``psi_x_series`` / ``psi_x_integral``: density of the first
  passage of the accumulated-jump process through the moving level, i.e.
  half the first-return time.  ``psi_x_series`` evaluates the Bessel-order
  mixture at every t; the quadrature form is kept as an independent route
  on purpose, and reconciling the two is part of the test surface.
* ``pdf_c0`` / ``pdf_cx`` / ``pdf_a0``: densities of the first return
  time from the boundary, of the first passage to the boundary from
  ``x``, and of the total lifetime until absorption from the boundary.
* MGFs and raw moments of all four lifetimes, plus closed mean/variance.
* ``joint_subdist`` / ``cond_atom`` / ``cond_cdf_within_cycle``: joint
  law of the accumulated jumps and the first return, and the position law
  at an intermediate time conditioned on the return time.

Everywhere below, series accumulate in extended precision and Bessel
factors are evaluated in exponentially scaled form, so no intermediate
overflows for any argument a tail integration can produce.  The
``SeriesControl`` budget governs the truncated double sums; the scaled
Bessel kernels and the Bessel-order mixtures built on them run to machine
precision.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .numeric import cdf_derivative, integrate
from .specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    _EPS_LD,
    _LD,
    _bessel_i_scaled_sweep,
    hyper_0f1,
    hyper_1f2,
    hyper_2f1,
)

logger = logging.getLogger(__name__)

# additive floor for tail checks on longdouble accumulators; built as a
# power because the value underflows to 0 as a float literal
_TAIL_FLOOR = _LD(10.0) ** -4300


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: rates ``lam`` (up) and ``mu`` (down), absorption
    probability ``alpha`` per boundary visit, and starting height ``x``.

    Requires 0 < mu < lam (drift toward the boundary), 0 < alpha <= 1
    (alpha = 1 is the degenerate always-absorb case) and x >= 0.
    """

    lam: float
    mu: float
    alpha: float = 1.0
    x: float = 0.0

    def __post_init__(self):
        for name in ("lam", "mu", "alpha", "x"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float, np.floating, np.integer)) and math.isfinite(v)):
                raise DomainError(f"ModelParams: {name} must be a finite number, got {v!r}")
        if not 0.0 < self.mu < self.lam:
            raise DomainError(
                f"ModelParams: requires 0 < mu < lam, got mu={self.mu}, lam={self.lam}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"ModelParams: requires 0 < alpha <= 1, got alpha={self.alpha}")
        if self.x < 0.0:
            raise DomainError(f"ModelParams: requires x >= 0, got x={self.x}")


@dataclass(frozen=True)
class MgfDomain:
    """Open upper MGF abscissas: ``bound_c`` for the lifetime family
    (cycle and absorption times), ``bound_t`` for the half-time family."""

    bound_c: float
    bound_t: float


@dataclass(frozen=True)
class MeanVar:
    """Closed-form first two central moments of C_x and A_x."""

    e_cx: float
    var_cx: float
    e_ax: float
    var_ax: float


@dataclass(frozen=True)
class CyclePoint:
    """One evaluation of the within-cycle conditional position law."""

    t: float
    tau: float
    xval: float
    atom_prob: float
    cdf: float
    pdf: float


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _as_batch(y) -> tuple[np.ndarray, bool]:
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr).astype(_LD), scalar


def _ret(values: np.ndarray, scalar: bool):
    out = np.asarray(values, dtype=float)
    return float(out[0]) if scalar else out


def _ibar(n: int, z: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel value of one order, vectorized."""
    return _bessel_i_scaled_sweep(n, z)[n]


def _bessel_order_sum(z: np.ndarray, c1, ratio, n_max: int) -> np.ndarray:
    """Per-lane sum over k = 1..n of c_k e^{-z} I_k(z), in longdouble.

    ``c1`` is the order-1 coefficient and ``ratio(k)`` maps an array of
    orders k to c_{k+1} / c_k.  The order count starts at ``n_max`` and
    grows by 1.6x, at most three times, until the last term of every lane
    sits below 1e-17 of its total.
    """
    for _ in range(4):
        sweep = _bessel_i_scaled_sweep(n_max, z)
        ratios = ratio(np.arange(1, n_max, dtype=_LD))
        coef = c1 * np.cumprod(np.concatenate(([_LD(1.0)], ratios)))
        total = coef @ sweep[1:]
        last = coef[-1] * sweep[-1]
        if np.all(last <= 1e-17 * total + _TAIL_FLOOR):
            return total
        n_max = int(1.6 * n_max) + 20
    raise ConvergenceError("Bessel-order sum", float(np.max(last)), n_max)


def geometric_pmf(m: int, p: ModelParams) -> float:
    """P(M = m) for the geometric number of boundary visits, m = 1, 2, ..."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise DomainError(f"geometric_pmf: m must be an integer >= 1, got {m!r}")
    return float(p.alpha * (1.0 - p.alpha) ** (m - 1))


# ---------------------------------------------------------------------------
# kernels of the pre-return displacement law
# ---------------------------------------------------------------------------


def h_density(y, t, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Free-space density kernel of accumulated downward displacement y at time t.

    ``y > 0`` and ``t > 0`` may each be scalar or array; arrays broadcast
    elementwise.
    """
    ya, sy = _as_batch(y)
    ta, st = _as_batch(t)
    if np.any(ta <= 0.0):
        raise DomainError("h_density: requires t > 0")
    if np.any(ya <= 0.0):
        raise DomainError("h_density: requires y > 0")
    ya, ta = np.broadcast_arrays(ya, ta)
    lam, mu = _LD(p.lam), _LD(p.mu)
    z = 2.0 * np.sqrt(lam * mu * ta * ya)
    # e^{-lam t - mu y} I_1(z) = exp(-(sqrt(lam t) - sqrt(mu y))^2) * scaled I_1
    expo = -((np.sqrt(lam * ta) - np.sqrt(mu * ya)) ** 2)
    vals = np.sqrt(lam * mu * ta / ya) * _ibar(1, z) * np.exp(expo)
    return _ret(vals, sy and st)


def g0_subdensity(y, t: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Sub-density of accumulated displacement at t on the event that the
    first boundary return happens after t, for a boundary start.

    Support is 0 < y < t; arguments at or beyond t are a domain error.
    """
    if not t > 0.0:
        raise DomainError(f"g0_subdensity: requires t > 0, got {t}")
    ya, scalar = _as_batch(y)
    if np.any(ya <= 0.0) or np.any(ya >= t):
        raise DomainError("g0_subdensity: requires 0 < y < t")
    vals = (t - ya) / t * np.asarray(h_density(np.asarray(ya, float), t, p, ctrl), float)
    return _ret(vals, scalar)


def _gx_scalar(y: float, t: float, p: ModelParams, ctrl: SeriesControl) -> float:
    x = p.x
    if y <= x:
        return float(h_density(y, t, p, ctrl))
    a = t + x - y  # inner integration starts here; 0 < a < t
    head = float(h_density(y, t, p, ctrl))
    reflected = float(h_density(y, y - x, p, ctrl)) * math.exp(-p.lam * a)

    def inner(u):
        u = np.asarray(u, float)
        return (
            h_density(u - a, u, p, ctrl) * h_density(t + x - u, t - u, p, ctrl) / u
        )

    quad = integrate(inner, a, t, tol=1e-12)
    return head - reflected - a * quad.value


def gx_subdensity(y, t: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Sub-density of accumulated displacement at t before the first boundary
    visit, for a start at height ``p.x``.  Support is 0 < y < x + t.

    Continuous across y = x; the upper branch subtracts the contribution of
    paths that would have already touched the boundary.
    """
    if not t > 0.0:
        raise DomainError(f"gx_subdensity: requires t > 0, got {t}")
    if p.x == 0.0:
        return g0_subdensity(y, t, p, ctrl)
    ya, scalar = _as_batch(y)
    if np.any(ya <= 0.0) or np.any(ya >= p.x + t):
        raise DomainError("gx_subdensity: requires 0 < y < x + t")
    vals = np.array([_gx_scalar(float(v), t, p, ctrl) for v in np.asarray(ya, float)])
    return _ret(vals, scalar)


# ---------------------------------------------------------------------------
# first-passage (half-cycle) densities
# ---------------------------------------------------------------------------


def psi0(t, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Density of the first passage through the moving level from a boundary
    start; equals the busy-period density of an M/M/1 queue with arrival
    rate ``mu`` and service rate ``lam``.  Scalar or array ``t > 0``.
    """
    ta, scalar = _as_batch(t)
    if np.any(ta <= 0.0):
        raise DomainError("psi0: requires t > 0")
    lam, mu = _LD(p.lam), _LD(p.mu)
    z = 2.0 * ta * np.sqrt(lam * mu)
    decay = (np.sqrt(lam) - np.sqrt(mu)) ** 2
    vals = lam / (ta * np.sqrt(lam * mu)) * _ibar(1, z) * np.exp(-decay * ta)
    return _ret(vals, scalar)


def _bracket_deficit(q: int, w, cache: dict) -> np.longdouble:
    """Deficit of a terminating-like 1F2 bracket from 1, as a single-sign
    series: -1 + 1F2(-1/2; (q+1)/2, (q+2)/2; w), computed via the
    Pochhammer-duplication rearrangement.  Always in (-1, 0] for w >= 0.
    """
    got = cache.get(q)
    if got is not None:
        return got
    if w == 0.0:
        cache[q] = _LD(0.0)
        return cache[q]
    u = _LD(-2.0) * w / ((q + 1.0) * (q + 2.0))
    acc = u
    n = 1
    while abs(u) > abs(acc) * _EPS_LD:
        u = u * (n - 0.5) * 4.0 * w / ((n + 1.0) * (q + 2.0 * n + 1.0) * (q + 2.0 * n + 2.0))
        acc = acc + u
        n += 1
        if n > 100000:
            raise ConvergenceError("bracket deficit series", abs(float(u)), n)
    cache[q] = acc
    return acc


def _psi_x_bessel(tarr: np.ndarray, x: float, lam: float, mu: float) -> np.ndarray:
    """Bessel-mixture route: the first passage from level x is the boundary
    first passage plus a Poisson(mu*x) number of independent busy periods,
    which collapses the double series to a single Bessel-order sum.
    """
    tl = np.asarray(tarr, dtype=_LD)
    laml, mul = _LD(lam), _LD(mu)
    srho = np.sqrt(laml / mul)
    mux = mul * _LD(x)
    z = 2.0 * tl * np.sqrt(laml * mul)
    m_guess = float(mux * srho)
    n_max = int(m_guess + 10.0 * math.sqrt(m_guess + 4.0)) + 26
    # order k carries (mux)^(k-1)/(k-1)! * k * srho^k
    total = _bessel_order_sum(z, srho, lambda k: mux * srho * (k + 1.0) / (k * k), n_max)
    decay = (np.sqrt(laml) - np.sqrt(mul)) ** 2
    return np.asarray(total * np.exp(-mux - decay * tl) / tl, dtype=float)


def psi_x_series(t, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Series route for the first-passage density from height ``p.x`` > 0.

    Scalar or array ``t > 0``.  Every t goes through the Bessel-order
    mixture, which runs to machine precision, so ``ctrl`` is accepted for
    signature uniformity only.  The paper's printed double series and the
    quadrature route :func:`psi_x_integral` stay as independent cross-checks
    in the test suite and in ``verify``.
    """
    if not p.x > 0.0:
        raise DomainError("psi_x_series: requires x > 0; use psi0 for a boundary start")
    ta, scalar = _as_batch(t)
    if np.any(ta <= 0.0):
        raise DomainError("psi_x_series: requires t > 0")
    return _ret(_psi_x_bessel(ta, p.x, p.lam, p.mu), scalar)


def psi_x_integral(t: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Quadrature route for the same first-passage density: a no-jump head
    term plus the pre-return displacement kernel integrated against the
    exponential overshoot weight.  Scalar ``t > 0``; kept independent of
    the series route so the two can be reconciled.
    """
    if not t > 0.0:
        raise DomainError(f"psi_x_integral: requires t > 0, got {t}")
    lam, mu, x = p.lam, p.mu, p.x
    head = lam * math.exp(-lam * t) * math.exp(-mu * (t + x))

    def weighted(y):
        y = np.asarray(y, float)
        g = np.array([_gx_scalar(float(v), t, p, ctrl) for v in y]) if x > 0.0 else np.asarray(
            g0_subdensity(y, t, p, ctrl), float
        )
        return g * np.exp(-mu * (t + x - y))

    tol = 1e-11
    if x > 0.0:
        # integrand has a kink at y = x; split there
        total = integrate(weighted, 0.0, x, tol).value + integrate(weighted, x, x + t, tol).value
    else:
        total = integrate(weighted, 0.0, t, tol).value
    return head + lam * total


# ---------------------------------------------------------------------------
# lifetime densities
# ---------------------------------------------------------------------------


def pdf_c0(y, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Density of the boundary-to-boundary cycle duration (y > 0).

    The cycle is exactly twice the first passage of the accumulated-jump
    process, so this is a half-argument rescale of ``psi0``; it integrates
    to one.  y = 0 returns the right-limit lam/2.
    """
    ya, scalar = _as_batch(y)
    yf = np.asarray(ya, float)
    if np.any(yf < 0.0):
        raise DomainError("pdf_c0: requires y >= 0")
    vals = np.full_like(yf, 0.5 * p.lam)
    pos = yf > 0.0
    if np.any(pos):
        vals[pos] = 0.5 * np.asarray(psi0(yf[pos] / 2.0, p, ctrl), float)
    return _ret(vals, scalar)


def pdf_c0_lambda_scaled(y, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Intentionally mis-normalized variant of :func:`pdf_c0` that keeps a
    spurious extra rate factor, so it integrates to ``lam`` instead of one.

    Retained only as a negative control: the verification harness must be
    able to catch exactly this defect.
    """
    return p.lam * pdf_c0(y, p, ctrl)


def pdf_cx(y, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Density of the first-visit time to the boundary from ``p.x`` > 0.

    The support starts at the direct travel time ``x``; values below it
    return 0.0 rather than raising, since y < x is a zero-probability
    region of the state space, not an invalid query.  y = x returns the
    right-limit lam * exp(-mu x) / 2.
    """
    if not p.x > 0.0:
        raise DomainError("pdf_cx: requires x > 0; use pdf_c0 for a boundary start")
    ya, scalar = _as_batch(y)
    yf = np.asarray(ya, float)
    out = np.zeros_like(yf)
    out[yf == p.x] = 0.5 * p.lam * math.exp(-p.mu * p.x)
    mask = yf > p.x
    if np.any(mask):
        out[mask] = 0.5 * np.asarray(
            psi_x_series((yf[mask] - p.x) / 2.0, p, ctrl), float
        )
    return _ret(out, scalar)


def _pdf_a0_bessel(yarr: np.ndarray, p: ModelParams) -> np.ndarray:
    """Geometric mixture of cycle-sum densities collapsed to one Bessel-order
    sum; the m-fold cycle sum contributes order-m Bessel weight."""
    lam, mu, alpha = _LD(p.lam), _LD(p.mu), _LD(p.alpha)
    yl = np.asarray(yarr, dtype=_LD)
    srho = np.sqrt(lam / mu)
    g = (1.0 - alpha) * srho
    z = yl * np.sqrt(lam * mu)
    zmax = float(np.max(z))
    lng = math.log(float(g)) if g > 0 else -math.inf
    n_max = int(zmax * max(lng, 0.0) + math.sqrt(92.0 * zmax + 4.0)) + 40
    # order m carries m * sqrt(rho) * g^(m-1)
    total = _bessel_order_sum(z, srho, lambda k: g * (k + 1.0) / k, n_max)
    decay = (np.sqrt(lam) - np.sqrt(mu)) ** 2 / 2.0
    return np.asarray(alpha / yl * np.exp(-decay * yl) * total, dtype=float)


def pdf_a0(y, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Density of the total lifetime until absorption from a boundary start.

    A geometric number of cycles is summed and collapsed to one vectorized
    Bessel-order mixture, good for tail integration; ``alpha = 1`` reduces
    to :func:`pdf_c0`.  The mixture runs to machine precision, so ``ctrl``
    is accepted for signature uniformity only.  y = 0 returns the
    right-limit alpha * lam / 2.
    """
    ya, scalar = _as_batch(y)
    yf = np.asarray(ya, float)
    if np.any(yf < 0.0):
        raise DomainError("pdf_a0: requires y >= 0")
    vals = np.full_like(yf, 0.5 * p.alpha * p.lam)
    pos = yf > 0.0
    if np.any(pos):
        vals[pos] = _pdf_a0_bessel(ya[pos], p)
    return _ret(vals, scalar)


# ---------------------------------------------------------------------------
# moment generating functions
# ---------------------------------------------------------------------------


def mgf_domain(p: ModelParams) -> MgfDomain:
    """Upper abscissas of MGF existence for the two time scales."""
    b = (math.sqrt(p.lam) - math.sqrt(p.mu)) ** 2
    return MgfDomain(bound_c=b / 2.0, bound_t=b)


def _radical_c(s: float, p: ModelParams) -> float:
    b = mgf_domain(p).bound_c
    if s > b:
        raise DomainError(f"mgf: requires s <= {b:.6g} for this parameter set, got s={s}")
    v = p.lam + p.mu - 2.0 * s
    return math.sqrt(max(v * v - 4.0 * p.lam * p.mu, 0.0))


def mgf_c0(s: float, p: ModelParams) -> float:
    """MGF of the boundary-to-boundary cycle duration, s <= bound_c."""
    s = float(s)
    r = _radical_c(s, p)
    return (p.lam + p.mu - 2.0 * s - r) / (2.0 * p.mu)


def mgf_a0(s: float, p: ModelParams) -> float:
    """MGF of the absorption time from the boundary, s <= bound_c.

    For small alpha the distribution's true abscissa sits strictly below
    ``bound_c`` (the geometric cycle count thickens the tail); values of s
    between the two are still returned as the closed form's analytic
    continuation.
    """
    s = float(s)
    r = _radical_c(s, p)
    den = 2.0 * p.lam * (p.alpha - 1.0) + (p.lam + p.mu - 2.0 * s) + r
    if den == 0.0:
        raise DomainError(f"mgf_a0: closed form singular at s={s}")
    return 2.0 * p.alpha * p.lam / den


def mgf_tx(s: float, p: ModelParams) -> float:
    """MGF of the first-passage time of the accumulated-jump process from
    height ``p.x`` (half the first-visit time scale), s <= bound_t."""
    s = float(s)
    b = mgf_domain(p).bound_t
    if s > b:
        raise DomainError(f"mgf_tx: requires s <= {b:.6g}, got s={s}")
    v = p.lam + p.mu - s
    q = math.sqrt(max(v * v - 4.0 * p.lam * p.mu, 0.0))
    return (v - q) / (2.0 * p.mu) * math.exp(p.x / 2.0 * (p.lam - p.mu - s - q))


def mgf_cx(s: float, p: ModelParams) -> float:
    """MGF of the first boundary-visit time from ``p.x``, s <= bound_c."""
    s = float(s)
    r = _radical_c(s, p)
    return mgf_c0(s, p) * math.exp(p.x / 2.0 * (p.lam - p.mu - r))


def mgf_ax(s: float, p: ModelParams) -> float:
    """MGF of the total absorption time from ``p.x``, s <= bound_c."""
    s = float(s)
    r = _radical_c(s, p)
    return mgf_a0(s, p) * math.exp(p.x / 2.0 * (p.lam - p.mu - r))


# ---------------------------------------------------------------------------
# raw moments
# ---------------------------------------------------------------------------


def _check_moment_order(n, what: str) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{what}: order must be an integer >= 0, got {n!r}")
    return int(n)


def moment_c0(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the cycle duration, via the closed Gauss-2F1 form.

    The 2F1 argument approaches 1 as mu approaches lam, where the series
    needs a larger ``ctrl.max_terms`` budget; exceeding the budget raises
    :class:`ConvergenceError` rather than silently truncating.
    """
    n = _check_moment_order(n, "moment_c0")
    if n == 0:
        return 1.0
    lam, mu = p.lam, p.mu
    z = 4.0 * lam * mu / (lam + mu) ** 2
    f = hyper_2f1((n + 1) / 2.0, (n + 2) / 2.0, 2.0, z, ctrl)
    return float(
        _LD(lam) * _LD(2.0) ** n * _LD(math.factorial(n)) / _LD(lam + mu) ** (n + 1) * _LD(f)
    )


def _c0_moment_coeffs(n: int, p: ModelParams, ctrl: SeriesControl) -> list:
    """Taylor coefficients of the cycle MGF: moment_c0(k)/k! for k = 0..n."""
    out = [_LD(1.0)]
    for k in range(1, n + 1):
        out.append(_LD(moment_c0(k, p, ctrl)) / _LD(math.factorial(k)))
    return out


def _a0_degenerate(p: ModelParams) -> bool:
    # the closed h-sum divides by powers of 4*lam*alpha*(mu + lam*(alpha-1));
    # near its zero the sum cancels catastrophically, so switch routes there
    return abs(p.mu + p.lam * (p.alpha - 1.0)) <= 1e-3 * (p.lam + p.mu)


def _a0_moment_coeffs(n: int, p: ModelParams, ctrl: SeriesControl) -> list:
    """Taylor coefficients of the absorption-time MGF at a boundary start,
    by the stable renewal-style recursion (used for the degenerate branch
    and as an internal cross-route)."""
    c = _c0_moment_coeffs(n, p, ctrl)
    ratio = _LD((1.0 - p.alpha) / p.alpha)
    a = [_LD(1.0)]
    for k in range(1, n + 1):
        s = c[k]
        for i in range(1, k + 1):
            s = s + ratio * c[i] * a[k - i]
        a.append(s)
    return a


def moment_a0(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the absorption time from the boundary.

    Uses the closed finite h-sum; when its leading denominator degenerates
    (alpha near 1 - mu/lam) the equivalent renewal recursion takes over.
    """
    n = _check_moment_order(n, "moment_a0")
    if n == 0:
        return 1.0
    if p.alpha == 1.0:
        return moment_c0(n, p, ctrl)
    lam, mu, alpha = p.lam, p.mu, p.alpha
    if _a0_degenerate(p):
        a = _a0_moment_coeffs(n, p, ctrl)
        return float(_LD(math.factorial(n)) * a[n])
    d = _LD(4.0 * lam * alpha * (mu + lam * (alpha - 1.0)))
    e = _LD(8.0 * lam * (alpha - 1.0))
    chat = _c0_moment_coeffs(n, p, ctrl)
    total = _LD(0.0)
    for h in range(n + 1):
        if h == 0:
            ch = _LD(2.0 * mu + 2.0 * lam * (alpha - 1.0))
        else:
            ch = 2.0 * _LD(mu) * chat[h]
        total = total + d**h * e ** (n - h) * ch
    return float(2.0 * _LD(alpha) * _LD(lam) * _LD(math.factorial(n)) / d ** (n + 1) * total)


def _position_factors(n: int, p: ModelParams, ctrl: SeriesControl) -> list:
    """Taylor coefficients (in s) of the starting-height MGF factor
    exp(x/2 (lam - mu - radical)), orders 0..n.

    The h-th coefficient mixes generalized binomials of half-integer
    arguments; the factored textbook form of that mix hits removable
    0*pole products at even j with h > j/2, so the direct convolution
    over the binomial pair is used instead (exact at every index).
    """
    x, lam, mu = p.x, p.lam, p.mu
    if x == 0.0:
        return [_LD(1.0)] + [_LD(0.0)] * n
    sl, sm = math.sqrt(lam), math.sqrt(mu)
    beta = _LD(-2.0 / (sl - sm) ** 2)
    w = _LD(((sl - sm) / (sl + sm)) ** 2)
    arg = _LD(-(lam - mu) * x / 2.0)
    acc = [_LD(0.0)] * (n + 1)
    tj = _LD(1.0)  # arg^j / j!
    small = 0
    degenerate = 0
    done = False
    for j in range(int(ctrl.max_terms)):
        half = j / 2.0
        gb = [_LD(1.0)]
        for i in range(1, n + 1):
            gb.append(gb[-1] * (_LD(half) - (i - 1.0)) / i)
        gw = [gb[i] * w**i for i in range(n + 1)]
        all_small = True
        for h in range(n + 1):
            k_jh = _LD(0.0)
            for i in range(h + 1):
                k_jh = k_jh + gw[i] * gb[h - i]
            contrib = tj * k_jh
            acc[h] = acc[h] + contrib
            if abs(contrib) > _LD(ctrl.rel_tol) * max(abs(acc[h]), _LD(1e-30)):
                all_small = False
        if j % 2 == 0 and n >= j // 2 + 1:
            degenerate += 1
        small = small + 1 if all_small else 0
        if small >= ctrl.consecutive_small:
            done = True
            break
        tj = tj * arg / (j + 1.0)
    if not done:
        raise ConvergenceError("moment position expansion", abs(float(tj)), int(ctrl.max_terms))
    if degenerate:
        logger.debug(
            "position-factor expansion crossed %d index pairs where the factored "
            "form is 0*pole; direct convolution used",
            degenerate,
        )
    expf = np.exp(_LD(x * (lam - mu) / 2.0))
    return [expf * beta**h * acc[h] for h in range(n + 1)]


def moment_cx(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the first boundary-visit time from ``p.x``.

    Cauchy product of the cycle-MGF coefficients with the starting-height
    factor coefficients; reduces to :func:`moment_c0` at x = 0.
    """
    n = _check_moment_order(n, "moment_cx")
    if n == 0:
        return 1.0
    if p.x == 0.0:
        return moment_c0(n, p, ctrl)
    e = _position_factors(n, p, ctrl)
    chat = _c0_moment_coeffs(n, p, ctrl)
    total = _LD(0.0)
    for h in range(n + 1):
        total = total + e[h] * chat[n - h]
    return float(_LD(math.factorial(n)) * total)


def moment_ax(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the total absorption time from ``p.x``.

    Same Cauchy product with the boundary absorption-time coefficients;
    alpha = 1 delegates to :func:`moment_cx`.
    """
    n = _check_moment_order(n, "moment_ax")
    if n == 0:
        return 1.0
    if p.alpha == 1.0:
        return moment_cx(n, p, ctrl)
    if p.x == 0.0:
        return moment_a0(n, p, ctrl)
    e = _position_factors(n, p, ctrl)
    ahat = [_LD(moment_a0(k, p, ctrl)) / _LD(math.factorial(k)) for k in range(n + 1)]
    total = _LD(0.0)
    for h in range(n + 1):
        total = total + e[h] * ahat[n - h]
    return float(_LD(math.factorial(n)) * total)


def closed_mean_var(p: ModelParams) -> MeanVar:
    """Closed-form mean and variance of the first boundary-visit time and
    of the total absorption time from ``p.x``."""
    lam, mu, alpha, x = p.lam, p.mu, p.alpha, p.x
    d = lam - mu
    e_cx = (2.0 + (lam + mu) * x) / d
    var_cx = (4.0 * (lam + mu) + 8.0 * lam * mu * x) / d**3
    e_ax = (2.0 + alpha * (lam + mu) * x) / (alpha * d)
    var_ax = 4.0 * (lam + mu * (2.0 * alpha - 1.0)) / (alpha**2 * d**3) + 8.0 * lam * mu * x / d**3
    return MeanVar(e_cx=e_cx, var_cx=var_cx, e_ax=e_ax, var_ax=var_ax)


# ---------------------------------------------------------------------------
# joint and conditional within-cycle laws (boundary start)
# ---------------------------------------------------------------------------


def joint_subdist(
    y: float, tau: float, t: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Joint sub-distribution value F(y, tau; t): the density in the first
    return time tau of {accumulated jumps at t <= y}, for a boundary start.

    Requires tau > t > 0 and 0 <= y <= t (given a return after t, the
    accumulated-jump value at t cannot exceed t).  At y = 0 only the
    zero-jump atom remains; at y = t the value equals psi0(tau).
    """
    t = float(t)
    tau = float(tau)
    y = float(y)
    if not t > 0.0:
        raise DomainError(f"joint_subdist: requires t > 0, got {t}")
    if not tau > t:
        raise DomainError(f"joint_subdist: requires tau > t, got tau={tau}, t={t}")
    if not 0.0 <= y <= t:
        raise DomainError(f"joint_subdist: requires 0 <= y <= t, got y={y}")
    lam, mu = p.lam, p.mu
    part1 = math.exp(-lam * t) * float(_psi_x_bessel(np.array([tau - t]), t, lam, mu)[0])
    if y == 0.0:
        return part1

    lm = _LD(lam) * _LD(mu)
    dt = _LD(tau - t)
    w2 = lm * dt * dt  # bracket-series argument
    w3 = float(lm * _LD(t) * _LD(y))  # 1F2 argument
    f1_cache: dict[int, float] = {}  # 1F2(1; k+2, 2; w3)
    f2_cache: dict[int, float] = {}  # 1F2(2; j+3, 2; w3)
    e_cache: dict[int, np.longdouble] = {}

    def f1(k: int) -> float:
        got = f1_cache.get(k)
        if got is None:
            got = hyper_1f2(1.0, k + 2.0, 2.0, w3, ctrl)
            f1_cache[k] = got
        return got

    # third piece: paths with a jump straddling t, no boundary-level brackets
    t3 = _LD(0.0)
    pj = _LD(1.0)  # (lam mu y (tau-t))^j / j!
    factj1 = _LD(1.0)  # (j+1)!
    arg01 = float(lm * dt * (_LD(tau) - _LD(y)))
    small = 0
    j = 0
    while True:
        factj1 = factj1 * (j + 1.0)
        factj2 = factj1 * (j + 2.0)
        f01 = hyper_0f1(j + 1.0, arg01, ctrl)
        f2 = f2_cache.get(j)
        if f2 is None:
            f2 = hyper_1f2(2.0, j + 3.0, 2.0, w3, ctrl)
            f2_cache[j] = f2
        term = pj * _LD(f01) * (
            _LD(t) * _LD(f1(j)) / factj1 - _LD(y) * _LD(f2) / factj2
        )
        t3 = t3 + term
        if abs(term) <= _LD(ctrl.rel_tol) * max(abs(t3), _LD(1e-30)):
            small += 1
            if small >= ctrl.consecutive_small:
                break
        else:
            small = 0
        j += 1
        if j >= ctrl.max_terms:
            raise ConvergenceError("joint_subdist: straddling-jump series", abs(float(term)), j)
        pj = pj * lm * _LD(y) * dt / j
    t3 = t3 * lm * _LD(y)

    # fourth piece: boundary-level bracket corrections
    t4 = _LD(0.0)
    qr = _LD(1.0)  # (lam mu (tau-t))^r / (r! (r+1)!)
    small = 0
    r = 0
    tmy = _LD(t) - _LD(y)
    while True:
        cs = dt**r  # C(r, s) (tau-t)^(r-s)
        inner = _LD(0.0)
        for s in range(r + 1):
            ksum = _LD(0.0)
            for k in range(s + 2):
                # tmy**0 is 1 even at y == t, which is the intended limit
                ksum = ksum + (
                    _LD(math.comb(s + 1, k))
                    * tmy ** (s + 1 - k)
                    * _LD(y) ** (k + 1)
                    / (k + 1.0)
                    * _LD(f1(k))
                )
            inner = inner + cs * (2.0 * r + 1.0 - s) * _bracket_deficit(2 * r - s, w2, e_cache) * ksum
            cs = cs * (r - s) / ((s + 1.0) * dt)
        contrib = qr * inner
        t4 = t4 + contrib
        if abs(contrib) <= _LD(ctrl.rel_tol) * max(abs(t4), _LD(1e-30)):
            small += 1
            if small >= ctrl.consecutive_small:
                break
        else:
            small = 0
        r += 1
        if r >= ctrl.max_terms:
            raise ConvergenceError("joint_subdist: bracket series", abs(float(contrib)), r)
        qr = qr * lm * dt / (r * (r + 1.0))
    t4 = t4 * lm / 2.0

    rest = _LD(lam) * np.exp(_LD(-(lam + mu) * tau)) * (t3 + t4)
    return part1 + float(rest)


def cond_atom(t: float, tau: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """P(position at t equals t | first return at tau): the no-downward-jump
    atom of the conditional position law.  Requires tau > t > 0."""
    t = float(t)
    tau = float(tau)
    if not t > 0.0:
        raise DomainError(f"cond_atom: requires t > 0, got {t}")
    if not tau > t:
        raise DomainError(f"cond_atom: requires tau > t, got tau={tau}, t={t}")
    den = float(psi0(tau, p, ctrl))
    if den <= 0.0:
        raise DomainError(f"cond_atom: conditioning density vanishes at tau={tau}")
    psi_t = float(_psi_x_bessel(np.array([tau - t]), t, p.lam, p.mu)[0])
    return math.exp(-p.lam * t) * psi_t / den


def cond_cdf_within_cycle(
    xval: float, t: float, tau: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """P(position at t <= xval | first return at tau), continuous part.

    Requires tau > t > 0 and 0 <= xval <= t.  The value at xval = t is
    1 minus the atom :func:`cond_atom`; the atom itself sits exactly at t.
    """
    xval = float(xval)
    t = float(t)
    tau = float(tau)
    if not t > 0.0:
        raise DomainError(f"cond_cdf_within_cycle: requires t > 0, got {t}")
    if not tau > t:
        raise DomainError(f"cond_cdf_within_cycle: requires tau > t, got tau={tau}, t={t}")
    if not 0.0 <= xval <= t:
        raise DomainError(f"cond_cdf_within_cycle: requires 0 <= xval <= t, got {xval}")
    if xval == 0.0:
        return 0.0
    den = float(psi0(tau, p, ctrl))
    if den <= 0.0:
        raise DomainError(f"cond_cdf_within_cycle: conditioning density vanishes at tau={tau}")
    num = joint_subdist((t - xval) / 2.0, tau, (t + xval) / 2.0, p, ctrl)
    return 1.0 - num / den


def cond_pdf_within_cycle(
    xval: float,
    t: float,
    tau: float,
    p: ModelParams,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    h: float | None = None,
) -> float:
    """Density of the continuous part of the conditional position law,
    by Richardson differentiation of :func:`cond_cdf_within_cycle`."""
    return cdf_derivative(
        lambda v: cond_cdf_within_cycle(float(v), t, tau, p, ctrl), float(xval), h, lo=0.0, hi=t
    )


def cycle_point(
    xval: float, t: float, tau: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL
) -> CyclePoint:
    """Bundle atom, CDF and density of the conditional position law at one
    evaluation point."""
    return CyclePoint(
        t=float(t),
        tau=float(tau),
        xval=float(xval),
        atom_prob=cond_atom(t, tau, p, ctrl),
        cdf=cond_cdf_within_cycle(xval, t, tau, p, ctrl),
        pdf=cond_pdf_within_cycle(xval, t, tau, p, ctrl),
    )
