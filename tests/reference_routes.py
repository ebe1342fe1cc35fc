"""Test-only oracles: the ascending-series kernel for the scaled Bessel
values, the paper's printed double series for the first-passage density from
level x, the two direct double-series routes for the absorption-time
density, the closed Gauss-2F1 and h-sum forms of the cycle and
absorption-time moments, the scalar loop form of the joint within-cycle
law, and the original loops of the two path engines and of the ``simulate``
CSV rows.

The package evaluates the scaled Bessel values by one backward ratio sweep,
both densities through Bessel-order mixtures, all moments through one Taylor
recursion on the MGFs, and the joint law through one array kernel over all
evaluation points.  These routes are independent rearrangements of the same
closed forms, kept here so the tests can reconcile them with the production
code.  The engine loops draw one uniform per call and allocate a fresh array
per operation; the package reads the same uniforms in blocks and updates its
arrays in place, and the tests hold it to the same bits.  Nothing under
``src/`` imports this module.

The printed psi_x series loses its digits to cancellation at larger heights
(at (lam, mu, x, t) = (10, 1, 20, 3.95) it comes out 19% high), so the tests
compare it only on rate triples where it is stable.
"""

import math

import numpy as np

from elastic_telegraph.analytic import ModelParams, _ibar, _psi_x_bessel
from elastic_telegraph.errors import ConvergenceError, DomainError
from elastic_telegraph.sim import AbsorptionRecord, PathTrace
from elastic_telegraph.specfun import (
    _EPS_LD,
    _LD,
    _Z_TINY,
    DEFAULT_CONTROL,
    SeriesControl,
    hyper_0f1,
    hyper_1f2,
    hyper_2f1,
)


def _bessel_i_scaled(n: int, z) -> np.ndarray:
    """e^{-z} I_n(z) for z >= 0, elementwise; returns a longdouble array.

    Ascending series with the prefactor folded into the first term, so the
    largest intermediate is O(1) for any z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=_LD))
    out = np.zeros_like(z)
    pos = z > _Z_TINY
    if np.any(pos):
        zp = z[pos]
        with np.errstate(divide="ignore"):
            logt0 = -zp + n * np.log(zp / 2.0) - _LD(math.lgamma(n + 1.0))
        term = np.exp(logt0)
        total = term.copy()
        q = zp * zp / 4.0
        k = 0
        while True:
            term = term * q / ((k + 1.0) * (k + n + 1.0))
            total += term
            k += 1
            if np.all(term <= total * _EPS_LD):
                break
            if k > 200000:  # unreachable for sane z; guards infinite loops
                raise ConvergenceError("bessel_i_scaled", float(np.max(term)), k)
        out[pos] = total
    if n == 0:
        out[~pos] = 1.0
    return out


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


def _joint_subdist_scalar(
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


# ---------------------------------------------------------------------------
# path engines and CSV rows, one uniform per generator call
# ---------------------------------------------------------------------------


def _draw_exp(gen: np.random.Generator, rate: float, size=None):
    if size is None:
        return -math.log1p(-gen.random()) / rate
    return -np.log1p(-gen.random(size)) / rate


def _simulate_one_loop(gen: np.random.Generator, p: ModelParams, keep_trace: bool):
    """One path to absorption: up duration, down duration, then one
    absorption uniform at each boundary visit."""
    lam, mu, alpha = p.lam, p.mu, p.alpha
    pos = float(p.x)
    tnow = 0.0
    visits: list[float] = []
    verts = [(0.0, pos)]
    phases: list[str] = []
    bevents: list[tuple[float, str]] = []
    while True:
        u = _draw_exp(gen, lam)
        pos += u
        tnow += u
        if keep_trace:
            verts.append((tnow, pos))
            phases.append("up")
        d = _draw_exp(gen, mu)
        if d >= pos:
            tnow += pos
            pos = 0.0
            if keep_trace:
                verts.append((tnow, 0.0))
                phases.append("truncated-down")
            visits.append(tnow)
            absorbed = gen.random() < alpha
            if keep_trace:
                bevents.append((tnow, "absorbed" if absorbed else "reflected"))
            if absorbed:
                break
        else:
            pos -= d
            tnow += d
            if keep_trace:
                verts.append((tnow, pos))
                phases.append("down")
    rec = AbsorptionRecord(
        c_x=visits[0],
        cycles=tuple(b - a for a, b in zip(visits, visits[1:])),
        m=len(visits),
        a_x=visits[-1],
    )
    if keep_trace:
        return rec, PathTrace(tuple(verts), tuple(phases), tuple(bevents))
    return rec


def _run_batch_loop(gen: np.random.Generator, p: ModelParams, k: int):
    """k paths in waves: per wave, up durations, down durations and coins for
    every live path; a fresh array per operation."""
    lam, mu, alpha = p.lam, p.mu, p.alpha
    pos = np.full(k, float(p.x))
    tnow = np.zeros(k)
    c_first = np.full(k, np.nan)
    mcount = np.zeros(k, dtype=np.int64)
    idx = np.arange(k)
    res_c = np.empty(k)
    res_m = np.empty(k, dtype=np.int64)
    res_a = np.empty(k)
    while pos.size:
        sz = pos.size
        u = _draw_exp(gen, lam, sz)
        pos += u
        tnow += u
        d = _draw_exp(gen, mu, sz)
        coin = gen.random(sz) < alpha
        hit = d >= pos
        tnow += np.where(hit, pos, d)
        pos = np.where(hit, 0.0, pos - d)
        if hit.any():
            first = hit & np.isnan(c_first)
            c_first[first] = tnow[first]
            mcount[hit] += 1
            absorbed = hit & coin
            if absorbed.any():
                res_c[idx[absorbed]] = c_first[absorbed]
                res_m[idx[absorbed]] = mcount[absorbed]
                res_a[idx[absorbed]] = tnow[absorbed]
                keep = ~absorbed
                pos = pos[keep]
                tnow = tnow[keep]
                c_first = c_first[keep]
                mcount = mcount[keep]
                idx = idx[keep]
    return res_c, res_m, res_a


def _sample_paths_loop(gen: np.random.Generator, p: ModelParams, n: int):
    """n paths in batches of at most a million, as (c_x, m, a_x) arrays."""
    parts = [_run_batch_loop(gen, p, min(k, 1_000_000)) for k in range(n, 0, -1_000_000)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _simulate_csv(seed: int, stream: int, c, m, a) -> bytes:
    """The ``simulate`` CSV, one joined field list per row."""
    lines = ["seed,stream,c_x,m,a_x"]
    for i in range(len(c)):
        lines.append(",".join([str(seed), str(stream), f"{float(c[i]):.17g}", str(int(m[i])),
                               f"{float(a[i]):.17g}"]))
    return ("\n".join(lines) + "\n").encode("ascii")
