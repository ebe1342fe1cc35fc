"""Monte Carlo engines: reproducibility, record invariants, statistics.

Statistical assertions use fixed seeds, so they are deterministic; the
margins quoted next to each one are 4 standard errors unless said
otherwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_telegraph.analytic import (
    ModelParams,
    closed_mean_var,
    cond_atom,
    cond_cdf_within_cycle,
    pdf_c0,
    psi0,
)
from elastic_telegraph.cli import main as cli_main
from elastic_telegraph.errors import DomainError
from elastic_telegraph.numeric import ks_statistic
from elastic_telegraph.sim import (
    AbsorptionRecord,
    PathTrace,
    RngSpec,
    SampleStats,
    WithinCycleSample,
    _tilted_rates,
    _within_cycle_kernel,
    sample_many,
    sample_paths,
    sample_within_cycle,
    simulate_absorption,
)

from reference_routes import (
    _sample_paths_loop,
    _simulate_csv,
    _simulate_one_loop,
)

P = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=1.0)
P0 = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=0.0)


# ---------------------------------------------------------------------------
# stream spec
# ---------------------------------------------------------------------------


def test_rng_spec_validation():
    with pytest.raises(DomainError):
        RngSpec(seed=-1)
    with pytest.raises(DomainError):
        RngSpec(seed=2**64)
    with pytest.raises(DomainError):
        RngSpec(seed=1.5)
    with pytest.raises(DomainError):
        RngSpec(seed=True)
    with pytest.raises(DomainError):
        RngSpec(seed=1, stream=-2)
    spec = RngSpec(seed=2**64 - 1, stream=0)
    assert isinstance(spec.generator(), np.random.Generator)


def test_rng_spec_streams_are_independent_keys():
    a = RngSpec(seed=7, stream=0).generator().random(4)
    b = RngSpec(seed=7, stream=1).generator().random(4)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_scalar_engine_reproducible():
    r1 = simulate_absorption(P, RngSpec(seed=42))
    r2 = simulate_absorption(P, RngSpec(seed=42))
    assert r1 == r2
    r3 = simulate_absorption(P, RngSpec(seed=42, stream=1))
    assert r3 != r1


def test_vector_engine_reproducible():
    a = sample_paths(P, RngSpec(seed=9), 1000)
    b = sample_paths(P, RngSpec(seed=9), 1000)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_sample_many_matches_sample_paths():
    # the named-reducer path drives the same engine with the same draws
    stats = sample_many(P, RngSpec(seed=9), 1000, reducer="a_x", keep_raw=True)
    _, _, a = sample_paths(P, RngSpec(seed=9), 1000)
    np.testing.assert_array_equal(stats.raw, a)


# ---------------------------------------------------------------------------
# bit identity with the one-uniform-per-call engine loops
# ---------------------------------------------------------------------------

# moderate, long-lived (alpha near 0, lam/mu near 1, high start) and
# always-absorbed from the boundary
BITWISE_SETS = [
    ModelParams(2.0, 0.5, 0.5, 1.0),
    ModelParams(1.1, 1.0, 0.05, 3.0),
    ModelParams(20.0, 1.0, 1.0, 0.0),
]


@pytest.mark.parametrize("p", BITWISE_SETS)
def test_batch_engine_bitwise_matches_loop_oracle(p):
    spec = RngSpec(seed=8128, stream=3)
    got = sample_paths(p, spec, 3000)
    want = _sample_paths_loop(spec.generator(), p, 3000)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    for i, name in enumerate(("c_x", "m", "a_x")):
        stats = sample_many(p, spec, 3000, reducer=name, keep_raw=True)
        assert np.array_equal(stats.raw, want[i].astype(float))


@pytest.mark.parametrize("p", BITWISE_SETS)
def test_scalar_engine_bitwise_matches_loop_oracle(p):
    # one generator across paths: the block reads must hand the leftover
    # uniforms of one path to the next
    spec = RngSpec(seed=496, stream=1)
    got = sample_many(p, spec, 300, reducer=lambda rec: rec.a_x - rec.c_x + rec.m, keep_raw=True)
    gen = spec.generator()
    want = [_simulate_one_loop(gen, p, False) for _ in range(300)]
    assert np.array_equal(got.raw, np.array([r.a_x - r.c_x + r.m for r in want]))
    for seed in range(12):
        rec, trace = simulate_absorption(p, RngSpec(seed=seed), keep_trace=True)
        assert (rec, trace) == _simulate_one_loop(RngSpec(seed=seed).generator(), p, True)
        assert simulate_absorption(p, RngSpec(seed=seed)) == rec


@pytest.mark.parametrize("p,n", [(BITWISE_SETS[0], 20_000), (BITWISE_SETS[1], 700), (BITWISE_SETS[2], 700)])
def test_simulate_csv_bytes_match_row_oracle(p, n, tmp_path, capsys):
    # 20,000 rows cross the writer's chunk boundary
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--lambda", str(p.lam), "--mu", str(p.mu), "--alpha", str(p.alpha),
            "--x", str(p.x), "--n", str(n), "--seed", "65537", "--stream", "2", "--out", str(out)]
    assert cli_main(argv) == 0
    c, m, a = _sample_paths_loop(RngSpec(seed=65537, stream=2).generator(), p, n)
    assert out.read_bytes() == _simulate_csv(65537, 2, c, m, a)
    capsys.readouterr()
    assert cli_main(argv[:-2]) == 0
    assert capsys.readouterr().out.encode("ascii") == _simulate_csv(65537, 2, c, m, a)


# ---------------------------------------------------------------------------
# record invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_absorption_record_invariants(seed):
    rec = simulate_absorption(P, RngSpec(seed=seed))
    assert rec.m >= 1
    assert len(rec.cycles) == rec.m - 1
    assert rec.c_x > P.x  # first visit needs the direct travel plus some up time
    assert rec.a_x == pytest.approx(rec.c_x + sum(rec.cycles), rel=1e-12)


def test_always_absorb_is_single_visit():
    p1 = ModelParams(lam=2.0, mu=0.5, alpha=1.0, x=1.0)
    for seed in (0, 1, 2, 3):
        rec = simulate_absorption(p1, RngSpec(seed=seed))
        assert rec.m == 1
        assert rec.cycles == ()
        assert rec.a_x == rec.c_x
    c, m, a = sample_paths(p1, RngSpec(seed=5), 2000)
    assert np.all(m == 1)
    np.testing.assert_array_equal(a, c)


def test_trace_is_consistent_with_record():
    rec, trace = simulate_absorption(P, RngSpec(seed=123), keep_trace=True)
    assert isinstance(trace, PathTrace)
    assert trace.vertices[0] == (0.0, P.x)
    t_end, pos_end = trace.vertices[-1]
    assert pos_end == 0.0
    assert t_end == pytest.approx(rec.a_x, rel=1e-12)
    kinds = [kind for _, kind in trace.boundary_events]
    assert kinds.count("reflected") == rec.m - 1
    assert kinds[-1] == "absorbed"
    assert len(kinds) == rec.m
    # boundary visit times are exactly the cumulative durations
    visit_times = [bt for bt, _ in trace.boundary_events]
    assert visit_times[0] == pytest.approx(rec.c_x, rel=1e-12)
    assert visit_times[-1] == pytest.approx(rec.a_x, rel=1e-12)


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


def test_absorption_record_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AbsorptionRecord(c_x=1.0, cycles=(), m=0, a_x=1.0)
    with pytest.raises(ValueError):
        AbsorptionRecord(c_x=1.0, cycles=(), m=2, a_x=1.0)
    with pytest.raises(ValueError):
        AbsorptionRecord(c_x=-1.0, cycles=(), m=1, a_x=-1.0)
    with pytest.raises(ValueError):
        AbsorptionRecord(c_x=1.0, cycles=(2.0,), m=2, a_x=4.0)  # sum mismatch
    ok = AbsorptionRecord(c_x=1.0, cycles=(2.0,), m=2, a_x=3.0)
    assert ok.m == 2


def test_path_trace_rejects_invalid_geometry():
    with pytest.raises(ValueError):  # not unit speed
        PathTrace(vertices=((0.0, 0.0), (1.0, 2.0)), phases=("up",), boundary_events=())
    with pytest.raises(ValueError):  # unknown phase label
        PathTrace(vertices=((0.0, 0.0), (1.0, 1.0)), phases=("sideways",), boundary_events=())
    with pytest.raises(ValueError):  # time must increase
        PathTrace(
            vertices=((0.0, 0.0), (0.0, 0.0)), phases=("up",), boundary_events=()
        )
    with pytest.raises(ValueError):  # negative position
        PathTrace(
            vertices=((0.0, 0.5), (1.0, 1.5), (3.0, -0.5)),
            phases=("up", "down"),
            boundary_events=(),
        )
    with pytest.raises(ValueError):  # vertex / phase count mismatch
        PathTrace(vertices=((0.0, 0.0), (1.0, 1.0)), phases=(), boundary_events=())
    with pytest.raises(ValueError):  # boundary event off the vertex grid
        PathTrace(
            vertices=((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)),
            phases=("up", "down"),
            boundary_events=((1.5, "absorbed"),),
        )
    with pytest.raises(ValueError):  # unknown boundary kind
        PathTrace(
            vertices=((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)),
            phases=("up", "down"),
            boundary_events=((2.0, "bounced"),),
        )
    ok = PathTrace(
        vertices=((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)),
        phases=("up", "down"),
        boundary_events=((2.0, "absorbed"),),
    )
    assert ok.phases == ("up", "down")


# ---------------------------------------------------------------------------
# reducers and stats
# ---------------------------------------------------------------------------


def test_sample_many_named_reducers():
    for reducer in ("c_x", "m", "a_x"):
        stats = sample_many(P, RngSpec(seed=3), 500, reducer=reducer)
        assert isinstance(stats, SampleStats)
        assert stats.n == 500
        assert stats.reducer == reducer
        assert stats.raw is None
        counts, edges = stats.histogram
        assert counts.sum() == 500
        assert edges.shape == (65,)


def test_sample_many_callable_reducer():
    stats = sample_many(
        P, RngSpec(seed=3), 200, reducer=lambda rec: float(rec.m), keep_raw=True
    )
    assert stats.reducer == "<lambda>"
    assert stats.raw.shape == (200,)
    assert float(stats.raw.min()) >= 1.0
    assert stats.mean == pytest.approx(float(np.mean(stats.raw)))
    assert stats.variance == pytest.approx(float(np.var(stats.raw, ddof=1)))


def test_sample_many_rejects_bad_input():
    with pytest.raises(DomainError):
        sample_many(P, RngSpec(seed=3), 0)
    with pytest.raises(DomainError):
        sample_many(P, RngSpec(seed=3), 10, reducer="total")
    with pytest.raises(DomainError):
        sample_paths(P, RngSpec(seed=3), -5)


def test_single_draw_variance_is_zero():
    stats = sample_many(P, RngSpec(seed=3), 1, reducer="a_x")
    assert stats.variance == 0.0


# ---------------------------------------------------------------------------
# distributional checks (fixed seeds, 4 standard errors unless noted)
# ---------------------------------------------------------------------------


def test_sample_moments_match_closed_forms():
    n = 300_000
    c, m, a = sample_paths(P, RngSpec(seed=12345), n)
    mv = closed_mean_var(P)
    assert float(np.mean(c)) == pytest.approx(mv.e_cx, abs=4.0 * math.sqrt(mv.var_cx / n))
    assert float(np.mean(a)) == pytest.approx(mv.e_ax, abs=4.0 * math.sqrt(mv.var_ax / n))
    var_m = (1.0 - P.alpha) / P.alpha**2
    assert float(np.mean(m)) == pytest.approx(1.0 / P.alpha, abs=4.0 * math.sqrt(var_m / n))


def test_scalar_engine_mean_agrees():
    n = 8000
    stats = sample_many(P, RngSpec(seed=77), n, reducer=lambda rec: rec.a_x)
    mv = closed_mean_var(P)
    assert stats.mean == pytest.approx(mv.e_ax, abs=4.0 * math.sqrt(mv.var_ax / n))


def test_visit_counts_are_geometric():
    # chi-square over cells {1..10, 11+} against Geom(alpha); 23.209 is the
    # 1 percent critical value at 10 degrees of freedom
    n = 1_000_000
    _, m, _ = sample_paths(P, RngSpec(seed=2024), n)
    counts = np.array([np.count_nonzero(m == k) for k in range(1, 11)], dtype=float)
    tail = n - counts.sum()
    expected = n * P.alpha * (1.0 - P.alpha) ** np.arange(10)
    exp_tail = n * (1.0 - P.alpha) ** 10
    chi2 = float(np.sum((counts - expected) ** 2 / expected) + (tail - exp_tail) ** 2 / exp_tail)
    assert chi2 < 23.209


def test_cycle_durations_pass_ks():
    # 1.628/sqrt(n) is the 1 percent Kolmogorov critical value
    n = 20_000
    c, _, _ = sample_paths(P0, RngSpec(seed=777), n)
    grid = np.linspace(0.0, 90.0, 18001)
    dens = pdf_c0(grid, P0)
    cdf_grid = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))))
    d = ks_statistic(c, lambda v: np.interp(v, grid, cdf_grid))
    assert d < 1.628 / math.sqrt(n)


def test_cycle_durations_ks_large_sample():
    n = 100_000
    c, _, _ = sample_paths(P0, RngSpec(seed=777, stream=2), n)
    grid = np.linspace(0.0, 90.0, 18001)
    dens = pdf_c0(grid, P0)
    cdf_grid = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))))
    assert ks_statistic(c, lambda v: np.interp(v, grid, cdf_grid)) < 0.006


def test_cycle_durations_within_record_are_uncorrelated():
    # consecutive boundary-to-boundary cycles inside one record should be
    # independent draws; a low absorption probability makes records long
    p = ModelParams(lam=2.0, mu=0.5, alpha=0.1, x=0.0)
    firsts: list[float] = []
    seconds: list[float] = []
    for i in range(2000):
        cyc = simulate_absorption(p, RngSpec(seed=314, stream=i)).cycles
        for j in range(len(cyc) - 1):
            firsts.append(cyc[j])
            seconds.append(cyc[j + 1])
    n_pairs = len(firsts)
    r = float(np.corrcoef(np.array(firsts), np.array(seconds))[0, 1])
    assert n_pairs > 10_000
    assert abs(r) < 3.0 / math.sqrt(n_pairs)


# ---------------------------------------------------------------------------
# within-cycle conditional sampler
# ---------------------------------------------------------------------------


def test_within_cycle_validation():
    with pytest.raises(DomainError):
        sample_within_cycle(P, RngSpec(seed=1), 1.0, 2.0)  # needs boundary start
    with pytest.raises(DomainError):
        sample_within_cycle(P0, RngSpec(seed=1), 0.0, 2.0)
    with pytest.raises(DomainError):
        sample_within_cycle(P0, RngSpec(seed=1), 2.0, 1.0)
    with pytest.raises(DomainError):
        sample_within_cycle(P0, RngSpec(seed=1), 1.0, 2.0, delta=-0.1)
    with pytest.raises(DomainError):
        sample_within_cycle(P0, RngSpec(seed=1), 1.9, 2.0, delta=0.3)  # window overlaps t
    with pytest.raises(DomainError):
        sample_within_cycle(P0, RngSpec(seed=1), 1.0, 2.0, n_target=0)


def test_within_cycle_support_and_counts():
    out = sample_within_cycle(
        P0, RngSpec(seed=4242), t=1.0, tau=2.0, delta=0.2, n_target=3000
    )
    assert isinstance(out, WithinCycleSample)
    assert out.n_accepted >= 3000
    assert out.values.size + out.atom_count == out.n_accepted
    # conditioned on returning after t, the position at t is in (0, t];
    # the atom draws sit exactly at t and are counted separately
    assert np.all(out.values > 0.0)
    assert np.all(out.values < out.t)
    assert out.n_cycles >= out.n_accepted


def test_within_cycle_atom_dominates_at_small_time():
    # almost no time to reverse direction, so nearly every accepted path is
    # still at full speed
    out = sample_within_cycle(P0, RngSpec(seed=2718), t=0.05, tau=2.0, delta=0.2, n_target=3000)
    emp = out.atom_count / out.n_accepted
    assert emp > 0.99
    assert emp == pytest.approx(cond_atom(0.05, 2.0, P0), abs=0.01)


def test_within_cycle_reproducible():
    a = sample_within_cycle(P0, RngSpec(seed=11), t=1.0, tau=2.0, delta=0.2, n_target=500)
    b = sample_within_cycle(P0, RngSpec(seed=11), t=1.0, tau=2.0, delta=0.2, n_target=500)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.atom_count == b.atom_count
    assert a.n_cycles == b.n_cycles


def test_within_cycle_matches_conditional_law():
    # the window has half-width 0.2 around tau, so the comparison against
    # the exact-tau law carries a smearing bias on top of the Monte Carlo
    # error; 0.06 absolute budgets both
    t, tau = 1.0, 2.0
    out = sample_within_cycle(
        P0, RngSpec(seed=99), t=t, tau=tau, delta=0.2, n_target=5000
    )
    atom_freq = out.atom_count / out.n_accepted
    assert atom_freq == pytest.approx(cond_atom(t, tau, P0), abs=0.05)
    for xv in (0.25, 0.5, 0.75):
        emp = float(np.count_nonzero(out.values <= xv * t)) / out.n_accepted
        want = cond_cdf_within_cycle(xv * t, t, tau, P0)
        assert emp == pytest.approx(want, abs=0.06)


def test_within_cycle_default_window():
    out = sample_within_cycle(P0, RngSpec(seed=5), t=1.0, tau=4.0, n_target=200)
    assert out.delta == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# exponential tilt of the within-cycle sampler
# ---------------------------------------------------------------------------


def _positions(ws: WithinCycleSample) -> np.ndarray:
    return np.concatenate((ws.values, np.full(ws.atom_count, ws.t)))


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    pooled = np.concatenate((a, b))
    fa = np.searchsorted(np.sort(a), pooled, side="right") / a.size
    fb = np.searchsorted(np.sort(b), pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def test_tilted_kernel_matches_untilted_kernel():
    # given the return time the law depends on the rates only through
    # lam*mu, so the kernel run at the model's own rates and at the tilted
    # pair must agree; 1.949*sqrt((n+m)/(n*m)) is the 0.1 percent two-sample
    # Kolmogorov critical value, and the atom frequencies must sit within
    # 4 standard errors
    t, tau, delta = 2.0, 4.0, 0.4
    pair = _tilted_rates(P0, 2.0 * (tau - delta), 2.0 * (tau + delta))
    assert pair[0] < P0.lam
    plain = _within_cycle_kernel(RngSpec(31, 1).generator(), P0, (P0.lam, P0.mu), t, tau, delta,
                                 10_000, 500_000)
    tilted = _within_cycle_kernel(RngSpec(31, 2).generator(), P0, pair, t, tau, delta, 10_000, 500_000)
    n, m = plain.n_accepted, tilted.n_accepted
    assert _ks_two_sample(_positions(plain), _positions(tilted)) < 1.949 * math.sqrt((n + m) / (n * m))
    pa, pb = plain.atom_count / n, tilted.atom_count / m
    assert abs(pa - pb) < 4.0 * math.sqrt(pa * (1.0 - pa) / n + pb * (1.0 - pb) / m)
    assert plain.thinning_acceptance == 1.0
    assert tilted.thinning_acceptance < 1.0
    # the tilt is what buys the speed: at least twice the acceptance per cycle
    assert tilted.n_accepted / tilted.n_cycles > 2.0 * plain.n_accepted / plain.n_cycles


def _windowed_law(p, t, tau, delta, xs):
    """CDF on xs and atom of the position at t given a half-cycle return in
    (tau - delta, tau + delta): the exact-tau law averaged against psi0 by
    12-node Gauss-Legendre (converged to 1e-9 here)."""
    g, w = np.polynomial.legendre.leggauss(12)
    taus = tau + delta * g
    wts = psi0(taus, p) * w
    wts = wts / wts.sum()
    cdf = sum(wi * cond_cdf_within_cycle(xs, t, ti, p) for wi, ti in zip(wts, taus))
    atom = sum(wi * cond_atom(t, ti, p) for wi, ti in zip(wts, taus))
    return cdf, atom


def _matches_windowed_law(ws, cdf, atom, xs) -> bool:
    # 1.949/sqrt(n) is the 0.1 percent Kolmogorov critical value; the atom
    # frequency must sit within 4 standard errors
    n = ws.n_accepted
    emp = np.searchsorted(np.sort(ws.values), xs, side="right") / n
    ks_ok = float(np.max(np.abs(emp - cdf))) < 1.949 / math.sqrt(n)
    return ks_ok and abs(ws.atom_count / n - atom) < 4.0 * math.sqrt(atom * (1.0 - atom) / n)


def test_thinning_keeps_wide_window_law_exact():
    # a window of half-width 3 and a pair far from the model's: without the
    # thinning step the sample follows the windowed law of the simulation
    # pair, whose cycle lengths weigh the window differently
    t, tau, delta = 2.5, 5.6, 3.0
    pair = (1.05, 1.0 / 1.05)
    xs = np.linspace(0.04, 0.96, 24) * t
    cdf, atom = _windowed_law(P0, t, tau, delta, xs)
    thinned = _within_cycle_kernel(RngSpec(5, 2).generator(), P0, pair, t, tau, delta, 20_000, 500_000)
    assert _matches_windowed_law(thinned, cdf, atom, xs)
    assert thinned.thinning_acceptance < 0.6
    # negative control: the same cycles with no thinning (the kernel run as
    # if the pair were the model) must be rejected by the same check
    unthinned = _within_cycle_kernel(RngSpec(5, 2).generator(), ModelParams(*pair), pair, t, tau,
                                     delta, 20_000, 500_000)
    assert unthinned.thinning_acceptance == 1.0
    assert not _matches_windowed_law(unthinned, cdf, atom, xs)


@pytest.mark.parametrize("ratio", [1.001, 1.1, 2.0, 4.0, 30.0, 1000.0])
def test_tilted_pair_never_lowers_acceptance(ratio):
    # the acceptance per cycle is P(window) times the least likelihood ratio
    # L(c) = (lam'/lam) e^{Delta c/2} over the window; it must be >= 1
    for mu in (0.05, 0.5, 1.0, 7.0):
        p = ModelParams(ratio * mu, mu)
        for tau in (0.3, 2.0, 6.0, 40.0):
            for frac in (0.01, 0.05, 0.3, 0.9):
                c_lo, c_hi = 2.0 * tau * (1.0 - frac), 2.0 * tau * (1.0 + frac)
                lam_s, mu_s = _tilted_rates(p, c_lo, c_hi)
                assert lam_s * mu_s == pytest.approx(p.lam * p.mu, rel=1e-13)
                assert lam_s > mu_s > 0.0
                half = 0.5 * ((p.lam + p.mu) - (lam_s + mu_s))
                log_l = [math.log(lam_s / p.lam) + half * c for c in (c_lo, c_hi)]
                assert min(log_l) >= -1e-12


def test_within_cycle_reports_tilt_and_acceptance():
    # verify's window: the tilt multiplies the acceptance per cycle by about 9
    out = sample_within_cycle(P0, RngSpec(seed=4242, stream=7), t=5.0, tau=6.0, delta=0.3,
                              n_target=5000)
    lam_s, mu_s = out.sim_rates
    assert (lam_s, mu_s) == _tilted_rates(P0, 11.4, 12.6)
    assert lam_s * mu_s == pytest.approx(P0.lam * P0.mu, rel=1e-13)
    assert 0.0 < out.thinning_acceptance < 1.0
    assert out.n_accepted / out.n_cycles > 9e-3
