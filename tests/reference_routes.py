"""Test-only oracles: the paper's printed double series for the first-passage
density from level x, the two direct double-series routes for the
absorption-time density, and the closed Gauss-2F1 and h-sum forms of the
cycle and absorption-time moments.

The package evaluates both densities through Bessel-order mixtures and all
moments through one Taylor recursion on the MGFs.  These routes are
independent rearrangements of the same closed forms, kept here so the tests
can reconcile them with the production code.  Nothing under ``src/``
imports this module.

The printed psi_x series loses its digits to cancellation at larger heights
(at (lam, mu, x, t) = (10, 1, 20, 3.95) it comes out 19% high), so the tests
compare it only on rate triples where it is stable.
"""

import math

import numpy as np

from elastic_telegraph.analytic import ModelParams, _bracket_deficit, _ibar
from elastic_telegraph.errors import ConvergenceError
from elastic_telegraph.specfun import _EPS_LD, _LD, SeriesControl, hyper_1f2, hyper_2f1


def _psi_x_printed(t: float, x: float, lam: float, mu: float, ctrl: SeriesControl) -> float:
    """Double-series route for the first-passage density from level x > 0."""
    tl, xl = _LD(t), _LD(x)
    lm = _LD(lam) * _LD(mu)
    w = lm * tl * tl
    z0 = 2.0 * np.sqrt(lm * tl * (tl + xl))
    # raw I_0(z0), safe because this route only runs for moderate z0
    i0_raw = _ibar(0, np.array([z0]))[0] * np.exp(z0)
    acc = i0_raw
    cache: dict[int, np.longdouble] = {}
    pref = _LD(1.0)  # (lam mu t x)^r / (r! (r+1)!)
    ratio_tx = tl / xl
    small = 0
    r = 0
    while True:
        cj = _LD(1.0)  # C(r, j) (t/x)^j
        inner = _LD(0.0)
        for j in range(r + 1):
            inner = inner + cj * (j + r + 1.0) * _bracket_deficit(j + r, w, cache)
            cj = cj * (r - j) / ((j + 1.0)) * ratio_tx
        contrib = pref * inner / 2.0
        acc = acc + contrib
        if abs(contrib) <= _LD(ctrl.rel_tol) * abs(acc):
            small += 1
            if small >= ctrl.consecutive_small:
                break
        else:
            small = 0
        r += 1
        if r >= ctrl.max_terms:
            raise ConvergenceError("psi_x_series", abs(float(contrib)), r)
        pref = pref * lm * tl * xl / (r * (r + 1.0))
    laml, mul = _LD(lam), _LD(mu)
    return float(laml * np.exp(-(laml + mul) * tl - mul * xl) * acc)


def _pdf_a0_scalar_series(y: float, p: ModelParams, ctrl: SeriesControl, combined: bool) -> float:
    """Direct double-series routes for the absorption-time density.

    ``combined=True`` uses the single-sign inner series; ``combined=False``
    evaluates the inner part as a difference of two 1F2 values.  Both are
    exact rearrangements of each other, kept for cross-validation.
    """
    lam, mu, alpha = p.lam, p.mu, p.alpha
    w = lam * mu * y * y / 4.0
    wl = _LD(w)
    zl = _LD(y) * np.sqrt(_LD(lam) * _LD(mu))
    acc = np.sqrt(_LD(lam) / _LD(mu)) * _ibar(1, np.array([zl]))[0] * np.exp(zl)
    # term m >= 2: (lam y/2)^m (1-alpha)^(m-1) / ((m-1) (m-1)!) * bracket_m
    pref = _LD(lam) * _LD(y) / 2.0  # (lam y / 2)^m (1-alpha)^(m-1) / (m-1)! at m = 1
    small = 0
    m = 2
    while True:
        pref = pref * _LD(lam) * _LD(y) / 2.0 * (1.0 - alpha) / (m - 1.0)
        if combined:
            # bracket = m (m-1) sum_n w^n / ((m+n) (m)_n n!)
            u = _LD(1.0) / m  # n = 0 term of the inner sum
            s = u
            n = 0
            while abs(u) > abs(s) * _EPS_LD:
                u = u * wl / ((n + 1.0) * (m + n + 1.0))
                s = s + u
                n += 1
                if n > 100000:
                    raise ConvergenceError("pdf_a0 inner series", abs(float(u)), n)
            bracket = m * (m - 1.0) * s
        else:
            bracket = _LD(
                2.0 * m * hyper_1f2((m - 1) / 2.0, (m + 1) / 2.0, float(m), w, ctrl)
                - (m + 1.0) * hyper_1f2((m - 1) / 2.0, (m + 1) / 2.0, m + 1.0, w, ctrl)
            )
        contrib = pref / (m - 1.0) * bracket
        acc = acc + contrib
        if abs(contrib) <= _LD(ctrl.rel_tol) * abs(acc):
            small += 1
            if small >= ctrl.consecutive_small:
                break
        else:
            small = 0
        m += 1
        if m - 1 >= ctrl.max_terms:
            raise ConvergenceError("pdf_a0 series", abs(float(contrib)), m)
    return float(_LD(alpha) / _LD(y) * np.exp(_LD(-(lam + mu) * y / 2.0)) * acc)


def _moment_c0_2f1(n: int, p: ModelParams, ctrl: SeriesControl) -> float:
    """n-th raw moment of the cycle duration by the closed Gauss-2F1 form.

    The 2F1 argument approaches 1 as mu approaches lam, where the series
    needs a larger ``ctrl.max_terms`` budget.
    """
    if n == 0:
        return 1.0
    lam, mu = p.lam, p.mu
    z = 4.0 * lam * mu / (lam + mu) ** 2
    f = hyper_2f1((n + 1) / 2.0, (n + 2) / 2.0, 2.0, z, ctrl)
    return float(
        _LD(lam) * _LD(2.0) ** n * _LD(math.factorial(n)) / _LD(lam + mu) ** (n + 1) * _LD(f)
    )


def _moment_a0_hsum(n: int, p: ModelParams, ctrl: SeriesControl) -> float:
    """n-th raw moment of the absorption time by the closed finite h-sum over
    the 2F1 cycle moments.

    The sum divides by powers of 4 lam alpha (mu + lam (alpha - 1)) and
    cancels catastrophically near alpha = 1 - mu/lam.
    """
    if n == 0:
        return 1.0
    lam, mu, alpha = p.lam, p.mu, p.alpha
    d = _LD(4.0 * lam * alpha * (mu + lam * (alpha - 1.0)))
    e = _LD(8.0 * lam * (alpha - 1.0))
    total = _LD(2.0 * mu + 2.0 * lam * (alpha - 1.0)) * e**n
    for h in range(1, n + 1):
        chat = _LD(_moment_c0_2f1(h, p, ctrl)) / _LD(math.factorial(h))
        total = total + d**h * e ** (n - h) * 2.0 * _LD(mu) * chat
    return float(2.0 * _LD(alpha) * _LD(lam) * _LD(math.factorial(n)) / d ** (n + 1) * total)
