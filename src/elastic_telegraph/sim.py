"""Monte Carlo simulation of the elastic-boundary telegraph process.

Paths alternate exponential up and down phases at unit speed; a downward
phase that would cross the origin is truncated there, and each boundary
visit flips an absorption coin.  All randomness flows through a
counter-based generator keyed by ``(seed, stream)``, so every draw
sequence is bit-for-bit reproducible.  Durations come from inverse
transform sampling (``-log1p(-U)/rate``) and the per-visit coin from one
uniform draw, in a fixed documented order.

Two engines share the distributional conventions: a scalar path engine
that can also record a full :class:`PathTrace`, and a vectorized batch
engine behind :func:`sample_many` and :func:`sample_within_cycle`.  The
two consume generator output in different orders, so they are each
reproducible but not draw-for-draw identical to one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RunawayError
from .analytic import ModelParams

_EVENT_CAP = 10**9
_UINT64_MAX = 2**64


@dataclass(frozen=True)
class RngSpec:
    """Key of the counter-based random stream: same (seed, stream) pairs
    yield identical draw sequences on every platform."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise DomainError(f"RngSpec: {name} must be an integer, got {v!r}")
            if not 0 <= v < _UINT64_MAX:
                raise DomainError(f"RngSpec: {name} must fit in 64 unsigned bits, got {v}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PathTrace:
    """Full piecewise-linear trajectory of one simulated path.

    ``vertices`` are (time, position) pairs; ``phases`` labels each
    segment ``up``, ``down`` or ``truncated-down``; ``boundary_events``
    records each origin visit as (time, ``reflected`` | ``absorbed``).
    """

    vertices: tuple[tuple[float, float], ...]
    phases: tuple[str, ...]
    boundary_events: tuple[tuple[float, str], ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.phases) + 1:
            raise ValueError("PathTrace: need exactly one more vertex than segments")
        allowed = {"up", "down", "truncated-down"}
        times = [v[0] for v in self.vertices]
        for (t0, p0), (t1, p1), ph in zip(self.vertices, self.vertices[1:], self.phases):
            if ph not in allowed:
                raise ValueError(f"PathTrace: unknown phase label {ph!r}")
            if not t1 > t0:
                raise ValueError("PathTrace: vertex times must increase")
            if p0 < 0.0 or p1 < 0.0:
                raise ValueError("PathTrace: positions must stay nonnegative")
            slope = 1.0 if ph == "up" else -1.0
            if abs((p1 - p0) - slope * (t1 - t0)) > 1e-9 * max(1.0, t1):
                raise ValueError("PathTrace: segment is not unit speed")
        for bt, kind in self.boundary_events:
            if kind not in ("reflected", "absorbed"):
                raise ValueError(f"PathTrace: unknown boundary event {kind!r}")
            if bt not in times:
                raise ValueError("PathTrace: boundary event time is not a vertex time")


@dataclass(frozen=True)
class AbsorptionRecord:
    """One simulated lifetime: first boundary-visit time ``c_x``, the
    ``m - 1`` subsequent cycle durations, the visit count ``m``, and the
    absorption time ``a_x``.  The identity a_x = c_x + sum(cycles) is
    asserted on construction."""

    c_x: float
    cycles: tuple[float, ...]
    m: int
    a_x: float

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError(f"AbsorptionRecord: m must be an integer >= 1, got {self.m!r}")
        if len(self.cycles) != self.m - 1:
            raise ValueError(
                f"AbsorptionRecord: expected {self.m - 1} cycle durations, got {len(self.cycles)}"
            )
        if self.c_x <= 0.0 or any(c <= 0.0 for c in self.cycles):
            raise ValueError("AbsorptionRecord: durations must be positive")
        total = self.c_x + sum(self.cycles)
        if abs(self.a_x - total) > 1e-9 * max(1.0, abs(self.a_x)):
            raise ValueError(
                f"AbsorptionRecord: a_x={self.a_x} does not equal c_x + sum(cycles)={total}"
            )


@dataclass(frozen=True)
class SampleStats:
    """Reduced view of a batch of simulated lifetimes."""

    n: int
    reducer: str
    mean: float
    variance: float
    histogram: tuple[np.ndarray, np.ndarray]
    raw: np.ndarray | None = None


@dataclass(frozen=True)
class WithinCycleSample:
    """Accepted draws of the position at time t conditioned on the first
    return time falling in a window around tau.

    ``values`` holds the continuous part (position strictly below t);
    ``atom_count`` counts draws that never jumped downward by t, whose
    position is exactly t.
    """

    t: float
    tau: float
    delta: float
    values: np.ndarray
    atom_count: int
    n_accepted: int
    n_cycles: int


def _draw_exp(gen: np.random.Generator, rate: float, size=None):
    # inverse transform; U in [0,1) makes log1p(-U) safe
    if size is None:
        return -math.log1p(-gen.random()) / rate
    return -np.log1p(-gen.random(size)) / rate


def _simulate_one(gen: np.random.Generator, p: ModelParams, keep_trace: bool):
    lam, mu, alpha = p.lam, p.mu, p.alpha
    pos = float(p.x)
    tnow = 0.0
    events = 0
    visits: list[float] = []
    verts = [(0.0, pos)]
    phases: list[str] = []
    bevents: list[tuple[float, str]] = []
    while True:
        u = _draw_exp(gen, lam)
        pos += u
        tnow += u
        events += 1
        if keep_trace:
            verts.append((tnow, pos))
            phases.append("up")
        d = _draw_exp(gen, mu)
        events += 1
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
        if events > _EVENT_CAP:
            raise RunawayError(
                f"simulate_absorption: path exceeded {_EVENT_CAP} events without absorbing"
            )
    rec = AbsorptionRecord(
        c_x=visits[0],
        cycles=tuple(b - a for a, b in zip(visits, visits[1:])),
        m=len(visits),
        a_x=visits[-1],
    )
    if keep_trace:
        return rec, PathTrace(tuple(verts), tuple(phases), tuple(bevents))
    return rec


def simulate_absorption(p: ModelParams, rng: RngSpec, keep_trace: bool = False):
    """Simulate one path from height ``p.x`` until absorption.

    Returns an :class:`AbsorptionRecord`, or ``(record, trace)`` when
    ``keep_trace`` is set.  Draw order per iteration: up duration, down
    duration, then one absorption uniform at each boundary visit.
    """
    gen = rng.generator()
    return _simulate_one(gen, p, keep_trace)


def _run_batch(gen: np.random.Generator, p: ModelParams, k: int):
    """Vectorized wave simulation of k independent paths to absorption."""
    lam, mu, alpha = p.lam, p.mu, p.alpha
    pos = np.full(k, float(p.x))
    tnow = np.zeros(k)
    c_first = np.full(k, np.nan)
    mcount = np.zeros(k, dtype=np.int64)
    idx = np.arange(k)
    res_c = np.empty(k)
    res_m = np.empty(k, dtype=np.int64)
    res_a = np.empty(k)
    iters = 0
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
        iters += 1
        if iters > _EVENT_CAP // 2:
            raise RunawayError("sample_many: batch exceeded the event cap without absorbing")
    return res_c, res_m, res_a


def _run_batches(gen: np.random.Generator, p: ModelParams, n: int):
    """Simulate n paths in chunks of at most a million; (c_x, m, a_x) arrays."""
    parts = [_run_batch(gen, p, min(k, 1_000_000)) for k in range(n, 0, -1_000_000)]
    return tuple(np.concatenate(col) for col in zip(*parts))


_NAMED_REDUCERS = ("c_x", "m", "a_x")


def sample_many(
    p: ModelParams,
    rng: RngSpec,
    n: int,
    reducer="a_x",
    keep_raw: bool = False,
    bins: int = 64,
) -> SampleStats:
    """Simulate ``n`` lifetimes and reduce each to one number.

    ``reducer`` is one of the named fields (``c_x``, ``m``, ``a_x``),
    served by the vectorized engine, or a callable mapping an
    :class:`AbsorptionRecord` to a float, served by the scalar engine.
    Variance uses the n-1 denominator; the histogram uses ``bins``
    equal-width bins over the sample range.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise DomainError(f"sample_many: n must be an integer >= 1, got {n!r}")
    gen = rng.generator()
    if callable(reducer):
        vals = np.array([float(reducer(_simulate_one(gen, p, False))) for _ in range(int(n))])
        name = getattr(reducer, "__name__", "callable")
    elif reducer in _NAMED_REDUCERS:
        c, m, a = _run_batches(gen, p, int(n))
        vals = {"c_x": c, "m": m.astype(float), "a_x": a}[reducer]
        name = reducer
    else:
        raise DomainError(
            f"sample_many: reducer must be callable or one of {_NAMED_REDUCERS}, got {reducer!r}"
        )
    mean = float(np.mean(vals))
    variance = float(np.var(vals, ddof=1)) if n > 1 else 0.0
    hist = np.histogram(vals, bins=bins)
    return SampleStats(
        n=int(n),
        reducer=name,
        mean=mean,
        variance=variance,
        histogram=hist,
        raw=vals if keep_raw else None,
    )


def sample_paths(p: ModelParams, rng: RngSpec, n: int):
    """Vectorized simulation of n paths; returns (c_x, m, a_x) arrays.

    Same engine and draw order as the named-reducer path of
    :func:`sample_many`, exposed for bulk output such as CSV dumps.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise DomainError(f"sample_paths: n must be an integer >= 1, got {n!r}")
    return _run_batches(rng.generator(), p, int(n))


def sample_within_cycle(
    p: ModelParams,
    rng: RngSpec,
    t: float,
    tau: float,
    delta: float | None = None,
    n_target: int = 100_000,
    batch_size: int = 500_000,
) -> WithinCycleSample:
    """Rejection-sample the position at time ``t`` within a single
    boundary-started excursion, conditioned on the half-cycle first-return
    value landing in ``(tau - delta, tau + delta)``.

    Requires a boundary start (``p.x == 0``) and ``tau - delta > t``.
    ``delta`` defaults to ``0.05 * tau``.  Cycles that exceed the window
    ceiling are abandoned early.  An acceptance rate below 1e-6 after the
    first two million cycles raises :class:`RunawayError` as infeasible.
    """
    if p.x != 0.0:
        raise DomainError("sample_within_cycle: conditional law requires a boundary start (x=0)")
    t = float(t)
    tau = float(tau)
    if delta is None:
        delta = 0.05 * tau
    delta = float(delta)
    if not (t > 0.0 and tau > t and delta > 0.0):
        raise DomainError(
            f"sample_within_cycle: requires 0 < t < tau and delta > 0, got t={t}, tau={tau}, "
            f"delta={delta}"
        )
    if not tau - delta > t:
        raise DomainError(
            f"sample_within_cycle: window must sit above t, got tau-delta={tau - delta} <= t={t}"
        )
    if not isinstance(n_target, (int, np.integer)) or isinstance(n_target, bool) or n_target < 1:
        raise DomainError(f"sample_within_cycle: n_target must be an integer >= 1, got {n_target!r}")
    gen = rng.generator()
    lam, mu = p.lam, p.mu
    # the window is on the half-cycle scale; cycle durations live at twice it
    c_lo, c_hi = 2.0 * (tau - delta), 2.0 * (tau + delta)
    accepted: list[np.ndarray] = []
    n_accepted = 0
    atom_count = 0
    n_cycles = 0
    while n_accepted < n_target:
        k = int(batch_size)
        n_cycles += k
        pos = np.zeros(k)
        tnow = np.zeros(k)
        w_up = np.zeros(k)
        w_at_t = np.full(k, np.nan)
        iters = 0
        while pos.size:
            sz = pos.size
            u = _draw_exp(gen, lam, sz)
            t_pre = tnow
            tnow = tnow + u
            cross = (t_pre < t) & (tnow >= t)
            if cross.any():
                wc = w_up[cross] + (t - t_pre[cross])
                # pure-up prefix: w_up and tnow are bitwise equal until the
                # first downward jump, so the position at t is exactly t
                wc[w_up[cross] == t_pre[cross]] = t
                w_at_t[cross] = wc
            w_up = w_up + u
            pos = pos + u
            d = _draw_exp(gen, mu, sz)
            hit = d >= pos
            t_end = tnow + np.where(hit, pos, d)
            cross_down = (tnow < t) & (t_end >= t)
            w_at_t[cross_down] = w_up[cross_down]
            tnow = t_end
            pos = np.where(hit, 0.0, pos - d)
            if hit.any():
                c0 = tnow[hit]
                ok = (c0 > c_lo) & (c0 < c_hi)
                if ok.any():
                    w_ok = w_at_t[hit][ok]
                    xs = 2.0 * w_ok - t
                    atom = xs >= t  # exact when the path never jumped before t
                    atom_count += int(np.count_nonzero(atom))
                    cont = xs[~atom]
                    if cont.size:
                        accepted.append(cont)
                    n_accepted += int(xs.size)
            keep = (~hit) & (tnow < c_hi)
            pos = pos[keep]
            tnow = tnow[keep]
            w_up = w_up[keep]
            w_at_t = w_at_t[keep]
            iters += 1
            if iters > _EVENT_CAP // 2:
                raise RunawayError("sample_within_cycle: batch exceeded the event cap")
        if n_cycles >= 2_000_000 and n_accepted < 1e-6 * n_cycles:
            raise RunawayError(
                f"sample_within_cycle: acceptance rate {n_accepted / n_cycles:.2e} below 1e-06, "
                "conditioning window is infeasible"
            )
    values = np.concatenate(accepted) if accepted else np.empty(0)
    return WithinCycleSample(
        t=t,
        tau=tau,
        delta=delta,
        values=values,
        atom_count=atom_count,
        n_accepted=n_accepted,
        n_cycles=n_cycles,
    )
