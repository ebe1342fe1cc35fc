"""Independent reference values and the correctness gate.

The reference densities are coded here from their Bessel-mixture formulas
in mpmath, so they keep working when oracles move inside the package.
Modified Bessel values of all the orders a sum needs come from the downward
recurrence I_{n-1}(z) = I_{n+1}(z) + (2n/z) I_n(z), which is stable for I,
scaled to mpmath's ``besseli(0, z)``.

Every gate function returns ``None`` when its input passes and a one-line
reason when it fails.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30
_MAXTERMS = 10**7


def _bessel_orders(n_lo: int, n_hi: int, z) -> list:
    """[I_n(z) for n in n_lo..n_hi] in mpmath precision, z > 0.

    Miller's backward recurrence from an order high enough that the
    contamination by K_n is below e^-80 relative, normalized to mpmath's
    I_0(z).
    """
    z = mp.mpf(z)
    top = int(math.sqrt(n_hi * n_hi + 80.0 * float(z))) + 30
    up, cur = mp.mpf(0), mp.mpf(1)  # unnormalized iterates at orders n+1, n
    out = []
    for n in range(top, 0, -1):
        up, cur = cur, up + 2 * n / z * cur
        if n_lo <= n - 1 <= n_hi:
            out.append(cur)
    scale = mp.besseli(0, z, maxterms=_MAXTERMS) / cur
    out.reverse()
    return [v * scale for v in out]


def _mixture(coef, n_lo: int, n_hi: int, z) -> tuple:
    """sum_{n=n_lo}^{n_hi} coef(n) I_n(z) and the magnitude of its last term."""
    vals = _bessel_orders(n_lo, n_hi, z)
    total = mp.mpf(0)
    term = mp.mpf(0)
    for n, i_n in zip(range(n_lo, n_hi + 1), vals):
        term = coef(n) * i_n
        total += term
    return total, abs(term)


def _converged_mixture(coef, n_lo: int, n_hi: int, z):
    for _ in range(8):
        total, last = _mixture(coef, n_lo, n_hi, z)
        if last <= mp.mpf(10) ** -26 * abs(total):
            return total
        n_hi = 2 * n_hi
    raise ArithmeticError(f"oracle mixture did not converge by order {n_hi}")


def psi0(t: float, lam: float, mu: float) -> float:
    """Busy-period density lam/(t sqrt(lam mu)) e^{-(lam+mu)t} I_1(2t sqrt(lam mu))."""
    t, lam, mu = mp.mpf(t), mp.mpf(lam), mp.mpf(mu)
    z = 2 * t * mp.sqrt(lam * mu)
    return float(lam / (t * mp.sqrt(lam * mu)) * mp.exp(-(lam + mu) * t) * mp.besseli(1, z, maxterms=_MAXTERMS))


def psi_x(t: float, lam: float, mu: float, x: float) -> float:
    """sum_m e^{-mu x}(mu x)^m/m! (m+1)/t (lam/mu)^{(m+1)/2} e^{-(lam+mu)t} I_{m+1}(2t sqrt(lam mu))."""
    if x == 0.0:
        return psi0(t, lam, mu)
    t, lam, mu, x = mp.mpf(t), mp.mpf(lam), mp.mpf(mu), mp.mpf(x)
    srho = mp.sqrt(lam / mu)
    mux = mu * x
    z = 2 * t * mp.sqrt(lam * mu)
    guess = float(mux * srho)
    n_hi = int(guess + 12.0 * math.sqrt(guess + 4.0)) + 30

    def coef(n):  # n = m + 1
        m = n - 1
        return mp.exp(-mux) * mux**m / mp.factorial(m) * n / t * srho**n

    total = _converged_mixture(coef, 1, n_hi, z)
    return float(total * mp.exp(-(lam + mu) * t))


def pdf_a0(y: float, lam: float, mu: float, alpha: float) -> float:
    """alpha/y e^{-(lam+mu)y/2} sum_{m>=1} m (1-alpha)^{m-1} (lam/mu)^{m/2} I_m(y sqrt(lam mu))."""
    if y == 0.0:
        return 0.5 * alpha * lam
    y, lam, mu, alpha = mp.mpf(y), mp.mpf(lam), mp.mpf(mu), mp.mpf(alpha)
    srho = mp.sqrt(lam / mu)
    z = y * mp.sqrt(lam * mu)
    g = float((1 - alpha) * srho)
    if g == 0.0:
        n_hi = 1
    else:
        zf = float(z)
        peak = zf * (g - 1.0 / g) / 2.0 if g > 1.0 else 0.0
        n_hi = int(peak + 15.0 * math.sqrt(zf + 1.0)) + 60
    total = _converged_mixture(lambda m: m * (1 - alpha) ** (m - 1) * srho**m, 1, n_hi, z)
    return float(alpha / y * mp.exp(-(lam + mu) * y / 2) * total)


def pdf_cx(y: float, lam: float, mu: float, x: float) -> float:
    if y < x:
        return 0.0
    if y == x:
        return 0.5 * lam * math.exp(-mu * x)
    return 0.5 * psi_x((y - x) / 2.0, lam, mu, x)


def closed_mean_var(lam: float, mu: float, alpha: float, x: float) -> tuple:
    """(E[C_x], Var[C_x], E[A_x], Var[A_x]) of the first visit and absorption times."""
    d = lam - mu
    e_cx = (2.0 + (lam + mu) * x) / d
    var_cx = (4.0 * (lam + mu) + 8.0 * lam * mu * x) / d**3
    e_ax = (2.0 + alpha * (lam + mu) * x) / (alpha * d)
    var_ax = 4.0 * (lam + mu * (2.0 * alpha - 1.0)) / (alpha**2 * d**3) + 8.0 * lam * mu * x / d**3
    return e_cx, var_cx, e_ax, var_ax


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def finite_in_range(values, lo: float = 0.0, hi: float = math.inf, what: str = "value"):
    v = np.asarray(values, dtype=float)
    bad = ~np.isfinite(v)
    if bad.any():
        return f"{what}: {int(bad.sum())} non-finite of {v.size}"
    out = (v < lo) | (v > hi)
    if out.any():
        i = int(np.argmax(out))
        return f"{what}: {float(v.flat[i])!r} outside [{lo}, {hi}]"
    return None


def close(value: float, ref: float, rtol: float, atol: float = 0.0, what: str = "value"):
    value = float(value)
    if not math.isfinite(value):
        return f"{what}: non-finite {value!r}"
    if abs(value - ref) > rtol * abs(ref) + atol:
        return f"{what}: {value!r} vs reference {ref!r}"
    return None


def normalized(value: float, tol: float = 1e-7, what: str = "integral"):
    """An integrated density must equal one."""
    return close(value, 1.0, 0.0, tol, what)


def spot_values(values, refs, what: str, rtol: float = 1e-9, scale: float = 0.0):
    """Compare selected outputs with reference values; ``scale`` sets an
    absolute floor (1e-12 of it) for deep-tail entries."""
    for v, r in zip(values, refs):
        reason = close(float(v), r, rtol, 1e-12 * scale, what)
        if reason:
            return reason
    return None


def first(*reasons):
    return next((r for r in reasons if r), None)
