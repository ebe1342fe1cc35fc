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
  Every raw moment is read off the Taylor coefficients of its MGF, which
  one exact recursion on the shared radical produces (``_mgf_taylor``).
* ``joint_subdist`` / ``cond_atom`` / ``cond_cdf_within_cycle`` /
  ``cond_pdf_within_cycle``: joint law of the accumulated jumps and the
  first return, and the position law at an intermediate time conditioned on
  the return time.  One lane kernel (``_joint_lanes``) evaluates the joint
  law for a whole array of points in one pass, so an x grid or a
  Richardson stencil costs one call.

Everywhere below, series accumulate in extended precision and Bessel
factors are evaluated in exponentially scaled form, so no intermediate
overflows for any argument a tail integration can produce.  The
``SeriesControl`` budget governs the truncated series of the conditional
law, summed per lane by ``specfun._lane_series``; the scaled Bessel kernels,
the Bessel-order mixtures built on them and the moment recursion run to
machine precision.
"""

from __future__ import annotations

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
    _lane_series,
    _ratio_series,
)

# additive floor for tail checks on longdouble accumulators; built as a
# power because the value underflows to 0 as a float literal
_TAIL_FLOOR = _LD(10.0) ** -4300
# the internal bracket-deficit series run to the extended unit roundoff
_EPS_CONTROL = SeriesControl(rel_tol=float(_EPS_LD), max_terms=100000, consecutive_small=1)
# Pascal's triangle C(n, k) in longdouble, grown on demand by _binomials
_PASCAL = np.ones((1, 1), dtype=_LD)


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
    """Upper MGF abscissas: ``bound_c`` for the cycle and first-visit times,
    ``bound_t`` for the half-time family, ``bound_a`` for absorption times."""

    bound_c: float
    bound_t: float
    bound_a: float


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

    ``c1`` is the order-1 coefficient and ``ratio(k)`` maps a column of
    orders k to c_{k+1} / c_k, either one column for all lanes or one per
    lane.  The order count starts at ``n_max`` and grows by 1.6x, at most
    three times, until the last term of every lane sits below 1e-17 of its
    total.  A total that is not finite (coefficients past the longdouble
    range) raises ConvergenceError at once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            sweep = _bessel_i_scaled_sweep(n_max, z)
            ratios = ratio(np.arange(1, n_max, dtype=_LD)[:, None])
            coef = c1 * np.cumprod(np.concatenate((np.ones((1, ratios.shape[1]), _LD), ratios)), axis=0)
            total = coef[:, 0] @ sweep[1:] if coef.shape[1] == 1 else np.einsum("kl,kl->l", coef, sweep[1:])
            if not np.all(np.isfinite(total)):
                raise ConvergenceError("Bessel-order sum", math.inf, n_max)
            last = coef[-1] * sweep[-1]
            if np.all(last <= 1e-17 * total + _TAIL_FLOOR):
                return total
            n_max = int(1.6 * n_max) + 20
    raise ConvergenceError("Bessel-order sum", float(np.max(last)), n_max)


def _binomials(n: int) -> np.ndarray:
    """Rows and columns 0..n-1 of the module-level Pascal table."""
    global _PASCAL
    if _PASCAL.shape[0] < n:
        c = np.zeros((n, n), dtype=_LD)
        c[:, 0] = 1.0
        for i in range(1, n):
            c[i, 1:] = c[i - 1, 1:] + c[i - 1, :-1]
        _PASCAL = c
    return _PASCAL[:n, :n]


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


def _psi_x_bessel(tarr: np.ndarray, x, lam: float, mu: float) -> np.ndarray:
    """Bessel-mixture route: the first passage from level x is the boundary
    first passage plus a Poisson(mu*x) number of independent busy periods,
    which collapses the double series to a single Bessel-order sum.  ``x``
    is one level for all of ``tarr`` or one level per element.
    """
    tl = np.asarray(tarr, dtype=_LD)
    laml, mul = _LD(lam), _LD(mu)
    srho = np.sqrt(laml / mul)
    mux = mul * np.asarray(x, dtype=_LD)
    z = 2.0 * tl * np.sqrt(laml * mul)
    m_guess = float(np.max(mux) * srho)
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
    """Upper abscissas of MGF existence for the two time scales.

    For alpha < 1 - sqrt(mu/lam) the absorption-time MGF has a pole at
    s* = alpha (lam - mu / (1 - alpha)) / 2 < bound_c, where the cycle MGF
    reaches 1 / (1 - alpha), and ``bound_a`` is s*; otherwise it is bound_c.
    """
    b = (math.sqrt(p.lam) - math.sqrt(p.mu)) ** 2
    bound_a = b / 2.0
    if p.alpha < 1.0 - math.sqrt(p.mu / p.lam):
        bound_a = min(bound_a, p.alpha * (p.lam - p.mu / (1.0 - p.alpha)) / 2.0)
    return MgfDomain(bound_c=b / 2.0, bound_t=b, bound_a=bound_a)


def _radical_c(s: float, p: ModelParams) -> float:
    b = mgf_domain(p).bound_c
    if s > b:
        raise DomainError(f"mgf: requires s <= {b:.6g} for this parameter set, got s={s}")
    v = p.lam + p.mu - 2.0 * s
    return math.sqrt(max(v * v - 4.0 * p.lam * p.mu, 0.0))


def _height_scaled(m0: float, p: ModelParams, u: float, what: str) -> float:
    """m0 * exp(x u / 2): a boundary-start MGF value times the starting-height
    factor, or DomainError when the product overflows a double."""
    with np.errstate(over="ignore"):
        v = m0 * float(np.exp(0.5 * p.x * u))
    if math.isinf(v):
        raise DomainError(f"{what}: starting-height factor exp({0.5 * p.x * u:.6g}) overflows a double")
    return v


def mgf_c0(s: float, p: ModelParams) -> float:
    """MGF of the boundary-to-boundary cycle duration, s <= bound_c."""
    s = float(s)
    r = _radical_c(s, p)
    return (p.lam + p.mu - 2.0 * s - r) / (2.0 * p.mu)


def mgf_a0(s: float, p: ModelParams) -> float:
    """MGF of the absorption time from the boundary, s <= bound_a; s = bound_a
    raises :class:`DomainError` when it is the pole below ``bound_c``."""
    s = float(s)
    r = _radical_c(s, p)
    dom = mgf_domain(p)
    if dom.bound_a < dom.bound_c and s >= dom.bound_a:
        raise DomainError(f"mgf_a0: requires s < {dom.bound_a:.6g} for this parameter set, got s={s}")
    den = 2.0 * p.lam * (p.alpha - 1.0) + (p.lam + p.mu - 2.0 * s) + r
    if not den > 0.0:
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
    return _height_scaled((v - q) / (2.0 * p.mu), p, p.lam - p.mu - s - q, "mgf_tx")


def mgf_cx(s: float, p: ModelParams) -> float:
    """MGF of the first boundary-visit time from ``p.x``, s <= bound_c."""
    s = float(s)
    r = _radical_c(s, p)
    return _height_scaled(mgf_c0(s, p), p, p.lam - p.mu - r, "mgf_cx")


def mgf_ax(s: float, p: ModelParams) -> float:
    """MGF of the total absorption time from ``p.x``, with the domain of
    :func:`mgf_a0`."""
    s = float(s)
    r = _radical_c(s, p)
    return _height_scaled(mgf_a0(s, p), p, p.lam - p.mu - r, "mgf_ax")


# ---------------------------------------------------------------------------
# raw moments
# ---------------------------------------------------------------------------


def _mgf_taylor(n: int, p: ModelParams) -> np.ndarray:
    """Taylor coefficients in s, orders 0..n, of the MGFs of C0, A0, C_x and
    A_x (rows 0..3), in longdouble; inf or nan past the longdouble range.

    All four are built from r(s) = sqrt((lam+mu-2s)^2 - 4 lam mu).  With
    r = lam + mu - 2s - 2 mu c, the square-root recursion for r becomes
    c_k = (2 c_{k-1} + mu sum_{j=1}^{k-1} c_j c_{k-j}) / (lam - mu) for the
    cycle MGF c, a sum of positive terms (r_1 + 2 would cancel at large
    lam/mu).  A0 = alpha c / (1 - (1-alpha) c) follows by the renewal
    recursion, the height factor exp(x (lam - mu - r) / 2) =
    exp(x (s + mu (c - 1))) by the exponential recursion
    e_k = (1/k) sum j f_j e_{k-j}, and C_x, A_x are the Cauchy products
    c e and a e (Knuth, TAOCP vol. 2, sec. 4.7).
    """
    lam, mu, x = _LD(p.lam), _LD(p.mu), _LD(p.x)
    ratio = _LD((1.0 - p.alpha) / p.alpha)
    c, a, e = np.zeros((3, n + 1), dtype=_LD)
    c[0] = a[0] = e[0] = 1.0
    for k in range(1, n + 1):
        c[k] = (2.0 * c[k - 1] + mu * (c[1:k] @ c[k - 1 : 0 : -1])) / (lam - mu)
        a[k] = c[k] + ratio * (c[1 : k + 1] @ a[k - 1 :: -1])
    jf = np.arange(n + 1, dtype=_LD) * x * mu * c  # j f_j, with f_1 = x (1 + mu c_1)
    jf[1:2] += x
    for k in range(1, n + 1):
        e[k] = (jf[1 : k + 1] @ e[k - 1 :: -1]) / k
    return np.stack([c, a, np.convolve(c, e)[: n + 1], np.convolve(a, e)[: n + 1]])


def _moment(n, p: ModelParams, row: int, what: str) -> float:
    """n! times the order-n Taylor coefficient of one row of :func:`_mgf_taylor`."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{what}: order must be an integer >= 0, got {n!r}")
    n = int(n)
    with np.errstate(over="ignore", invalid="ignore"):
        coef = _mgf_taylor(n, p)[row, n]
        value = float(coef * np.prod(np.arange(1, n + 1, dtype=_LD)))
    if not math.isfinite(value):
        raise DomainError(f"{what}: the order-{n} moment is not finite in double precision")
    return value


def moment_c0(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the cycle duration.

    Each ``moment_*`` is n! times a Taylor coefficient from the exact
    recursion :func:`_mgf_taylor`, so ``ctrl`` is accepted for signature
    uniformity only.  A moment not finite in double raises DomainError.
    """
    return _moment(n, p, 0, "moment_c0")


def moment_a0(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the absorption time from the boundary; see :func:`moment_c0`."""
    return _moment(n, p, 1, "moment_a0")


def moment_cx(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the first boundary-visit time from ``p.x``; see
    :func:`moment_c0`."""
    return _moment(n, p, 2, "moment_cx")


def moment_ax(n: int, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """n-th raw moment of the total absorption time from ``p.x``; see
    :func:`moment_c0`."""
    return _moment(n, p, 3, "moment_ax")


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


def _order_family(b: np.ndarray, z: np.ndarray, ctrl: SeriesControl, a=None, c=None) -> np.ndarray:
    """(len(b), lanes) array of 1F2(a; b_m, c; z), or of 0F1(; b_m; z) when
    ``a`` is None, for every lower parameter b_m and every lane of z, summed
    as one lane series."""
    bb = np.repeat(b, z.shape[0])
    zz = np.tile(z, b.shape[0])

    def ratio(k):
        den = (bb + k) * (k + 1.0)
        return zz / den if a is None else zz * (a + k) / (den * (c + k))
    what = f"joint_subdist: {'0F1' if a is None else '1F2'} order family"
    return _ratio_series(np.ones(bb.shape[0], dtype=_LD), ratio, ctrl, what).reshape(b.shape[0], -1)


def _joint_lanes(y: np.ndarray, t: np.ndarray, tau: float, p: ModelParams, ctrl: SeriesControl) -> np.ndarray:
    """F(y_i, tau; t_i) for 1-D arrays of lanes (y_i, t_i), in one pass.

    The zero-jump part is one Bessel-order mixture over all lanes.  The
    straddling-jump j-series and the bracket r-series are built as (terms x
    lanes) arrays from the 1F2/0F1 order families and the bracket deficits
    D(q), each kept as an order-indexed table that grows with the term cap,
    and each lane is summed under the ``ctrl`` stopping rule.  The bracket
    term r is sum_s C(r,s) (tau-t)^(r-s) (2r+1-s) D(2r-s) K[s], with
    K[s] = sum_k C(s+1,k) (t-y)^(s+1-k) y^(k+1)/(k+1) 1F2(1; k+2, 2; lam mu t y)
    formed once per s, so a cap of R terms costs O(R^2) per lane.
    """
    lam, mu = p.lam, p.mu
    lm = _LD(lam) * _LD(mu)
    yl, tl, taul = y.astype(_LD), t.astype(_LD), _LD(tau)
    part1 = np.exp(-_LD(lam) * tl) * _psi_x_bessel(tau - t, t, lam, mu)
    dt = taul - tl
    w3 = lm * tl * yl  # 1F2 argument
    tables: dict[str, np.ndarray] = {}

    def rows(key: str, n: int, build) -> np.ndarray:  # rows 0..n-1 of a table; build(m) makes rows m
        have = tables.get(key, np.empty((0, y.shape[0]), dtype=_LD))
        if have.shape[0] < n:
            have = tables[key] = np.concatenate((have, build(np.arange(have.shape[0], n, dtype=_LD))))
        return have[:n]

    def deficits(q: np.ndarray) -> np.ndarray:
        # D(q) = -1 + 1F2(-1/2; (q+1)/2, (q+2)/2; w), w = lam mu (tau-t)^2, as a single-sign series
        qq, ww = np.repeat(q, y.shape[0]), np.tile(lm * dt * dt, q.shape[0])
        return _ratio_series(
            -2.0 * ww / ((qq + 1.0) * (qq + 2.0)),
            lambda k: (k + 0.5) * 4.0 * ww / ((k + 2.0) * (qq + 2.0 * k + 3.0) * (qq + 2.0 * k + 4.0)),
            _EPS_CONTROL, "bracket deficit series",
        ).reshape(q.shape[0], -1)

    def f1(n: int) -> np.ndarray:  # 1F2(1; k+2, 2; w3), k < n
        return rows("f1", n, lambda m: _order_family(m + 2.0, w3, ctrl, a=1.0, c=2.0))

    def straddle(n: int) -> np.ndarray:
        # third piece: paths with a jump straddling t, no boundary-level brackets
        j = np.arange(n, dtype=_LD)[:, None]
        pj = np.cumprod(np.concatenate((np.ones_like(dt)[None], lm * yl * dt / j[1:])), axis=0)
        fact1 = np.cumprod(j + 1.0, axis=0)  # (j+1)!
        f01 = rows("f01", n, lambda m: _order_family(m + 1.0, lm * dt * (taul - yl), ctrl))
        f2 = rows("f2", n, lambda m: _order_family(m + 3.0, w3, ctrl, a=2.0, c=2.0))
        return pj * f01 * (tl * f1(n) / fact1 - yl * f2 / (fact1 * (j + 2.0)))

    def bracket(n: int) -> np.ndarray:
        # fourth piece: boundary-level bracket corrections
        deficit = rows("deficit", 2 * n - 1, deficits)
        binom = _binomials(n + 1)
        k = np.arange(n + 1)[:, None]
        s = k[:n]  # as a column it also indexes r, as the row s.T it indexes s
        # tmy**0 is 1 even at y == t, which is the intended limit
        tpow = (tl - yl) ** k
        yk = yl ** (k + 1.0) / (k + 1.0) * f1(n + 1)
        ksum = np.einsum("sk,ski,ki->si", binom[1:], tpow[np.maximum(s + 1 - k.T, 0)], yk)
        cs = binom[:n, :n] * (2.0 * s + 1.0 - s.T)  # C(r, s) (2r+1-s), zero where s > r
        dpow, dgather = dt ** s, deficit[np.maximum(2 * s - s.T, 0)]
        inner = np.einsum("rs,rsi,rsi,si->ri", cs, dpow[np.maximum(s - s.T, 0)], dgather, ksum)
        qr = np.cumprod(np.concatenate((np.ones_like(dt)[None], lm * dt / (k[1:n] * (k[1:n] + 1.0)))), axis=0)
        return qr * inner

    t3 = _lane_series(straddle, ctrl, "joint_subdist: straddling-jump series", 1e-30, 16) * lm * yl
    t4 = _lane_series(bracket, ctrl, "joint_subdist: bracket series", 1e-30, 16) * lm / 2.0
    rest = _LD(lam) * np.exp(-(_LD(lam) + _LD(mu)) * taul) * (t3 + t4)
    return np.asarray(part1 + rest, dtype=float)


def joint_subdist(y, tau: float, t, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL):
    """Joint sub-distribution value F(y, tau; t): the density in the first
    return time tau of {accumulated jumps at t <= y}, for a boundary start.

    ``y`` and ``t`` are scalars or arrays that broadcast together; all
    points share one ``tau`` and are evaluated in one pass of the lane
    kernel.  Requires tau > t > 0 and 0 <= y <= t (given a return after t,
    the accumulated-jump value at t cannot exceed t).  At y = 0 only the
    zero-jump atom remains; at y = t the value equals psi0(tau).  A scalar
    pair returns a float.
    """
    tau = float(tau)
    ya, ta = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(t, dtype=float))
    if not np.all(ta > 0.0):
        raise DomainError(f"joint_subdist: requires t > 0, got t={t}")
    if not np.all(tau > ta):
        raise DomainError(f"joint_subdist: requires tau > t, got tau={tau}, t={t}")
    if not np.all((ya >= 0.0) & (ya <= ta)):
        raise DomainError(f"joint_subdist: requires 0 <= y <= t, got y={y}")
    vals = _joint_lanes(ya.ravel(), ta.ravel(), tau, p, ctrl).reshape(ya.shape)
    return float(vals) if vals.ndim == 0 else vals


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
    psi_t = _psi_x_bessel(np.array([tau - t]), t, p.lam, p.mu)[0]
    return float(np.exp(-_LD(p.lam) * _LD(t)) * psi_t / den)


def cond_cdf_within_cycle(
    xval, t: float, tau: float, p: ModelParams, ctrl: SeriesControl = DEFAULT_CONTROL
):
    """P(position at t <= xval | first return at tau), continuous part.

    Requires tau > t > 0 and 0 <= xval <= t.  ``xval`` is a scalar (the
    result is a float) or an array, whose positive points go to one
    :func:`joint_subdist` call; the conditioning density psi0(tau) is
    evaluated once.  The value at xval = t is 1 minus the atom
    :func:`cond_atom`; the atom itself sits exactly at t.
    """
    xa = np.asarray(xval, dtype=float)
    t = float(t)
    tau = float(tau)
    if not t > 0.0:
        raise DomainError(f"cond_cdf_within_cycle: requires t > 0, got {t}")
    if not tau > t:
        raise DomainError(f"cond_cdf_within_cycle: requires tau > t, got tau={tau}, t={t}")
    if not np.all((xa >= 0.0) & (xa <= t)):
        raise DomainError(f"cond_cdf_within_cycle: requires 0 <= xval <= t, got {xval}")
    out = np.zeros(xa.shape)
    pos = xa > 0.0
    if np.any(pos):
        den = float(psi0(tau, p, ctrl))
        if den <= 0.0:
            raise DomainError(f"cond_cdf_within_cycle: conditioning density vanishes at tau={tau}")
        out[pos] = 1.0 - joint_subdist((t - xa[pos]) / 2.0, tau, (t + xa[pos]) / 2.0, p, ctrl) / den
    return float(out) if out.ndim == 0 else out


def cond_pdf_within_cycle(
    xval,
    t: float,
    tau: float,
    p: ModelParams,
    ctrl: SeriesControl = DEFAULT_CONTROL,
    h: float | None = None,
):
    """Density of the continuous part of the conditional position law,
    by Richardson differentiation of :func:`cond_cdf_within_cycle`.

    A scalar ``xval`` returns a float; an array is differentiated as one
    stencil, so each of the four CDF evaluations is a single
    :func:`joint_subdist` call over all points.
    """
    return cdf_derivative(lambda v: cond_cdf_within_cycle(v, t, tau, p, ctrl), xval, h, lo=0.0, hi=t)


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
