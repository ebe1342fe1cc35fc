"""Test-only oracles: the paper's printed double series for the first-passage
density from level x, and the two direct double-series routes for the
absorption-time density.

The package evaluates both densities through Bessel-order mixtures.  These
routes are independent rearrangements of the same closed forms, kept here so
the tests can reconcile them with the production code.  Nothing under
``src/`` imports this module.

The printed psi_x series loses its digits to cancellation at larger heights
(at (lam, mu, x, t) = (10, 1, 20, 3.95) it comes out 19% high), so the tests
compare it only on rate triples where it is stable.
"""

import numpy as np

from elastic_telegraph.analytic import ModelParams, _bracket_deficit, _ibar
from elastic_telegraph.errors import ConvergenceError
from elastic_telegraph.specfun import _EPS_LD, _LD, SeriesControl, hyper_1f2


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
