"""Distribution layer: frozen reference values and cross-route identities.

Reference values were computed with mpmath at 30 significant digits from
independent implementations of each closed form and are pasted as
literals.  Route-reconciliation tests then require the production code's
different evaluation strategies to agree with each other to much tighter
tolerances than any single frozen literal.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_telegraph.analytic import (
    CyclePoint,
    MeanVar,
    ModelParams,
    _psi_x_bessel,
    closed_mean_var,
    cond_atom,
    cond_cdf_within_cycle,
    cond_pdf_within_cycle,
    cycle_point,
    g0_subdensity,
    geometric_pmf,
    gx_subdensity,
    h_density,
    joint_subdist,
    mgf_a0,
    mgf_ax,
    mgf_c0,
    mgf_cx,
    mgf_domain,
    mgf_tx,
    moment_a0,
    moment_ax,
    moment_c0,
    moment_cx,
    pdf_a0,
    pdf_c0,
    pdf_c0_lambda_scaled,
    pdf_cx,
    psi0,
    psi_x_integral,
    psi_x_series,
)
from elastic_telegraph.errors import ConvergenceError, DomainError
from elastic_telegraph.numeric import integrate, numeric_mgf, numeric_moment
from elastic_telegraph.specfun import DEFAULT_CONTROL, SeriesControl
from reference_routes import (
    _joint_subdist_scalar,
    _moment_a0_hsum,
    _pdf_a0_scalar_series,
    _psi_x_printed,
)

scipy_special = pytest.importorskip("scipy.special")

P = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=1.0)
P_MU_HI = ModelParams(lam=2.0, mu=1.5, alpha=0.5, x=1.0)


def with_(p, **kw):
    d = {"lam": p.lam, "mu": p.mu, "alpha": p.alpha, "x": p.x}
    d.update(kw)
    return ModelParams(**d)


# ---------------------------------------------------------------------------
# first-passage density from the boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, want",
    [
        (0.5, 0.6476831771322158984641),
        (1.0, 0.2611348480480557281071),
        (2.0, 0.0657587589450820851519),
        (5.0, 0.003981538813829323719969),
        (6.0, 0.0018498268964454295478),
    ],
)
def test_psi0_frozen(t, want):
    assert psi0(t, P) == pytest.approx(want, rel=1e-12)


def test_psi0_frozen_high_mu():
    assert psi0(6.0, P_MU_HI) == pytest.approx(0.013328516969367374883, rel=1e-12)


def test_psi0_array_matches_scalars():
    ts = np.array([0.3, 1.0, 4.0, 30.0])
    vec = psi0(ts, P)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert v == psi0(float(t), P)
    assert isinstance(psi0(1.0, P), float)


def test_psi0_normalizes():
    res = integrate(lambda t: psi0(t, P), 0.0, np.inf, tol=1e-11)
    assert res.value == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# displacement kernels
# ---------------------------------------------------------------------------


def test_h_density_matches_explicit_formula():
    # independent form: sqrt(lam mu t / y) I_1(2 sqrt(lam mu t y)) e^{-lam t - mu y}
    lam, mu = P.lam, P.mu
    for y in (0.2, 1.0, 3.7):
        for t in (0.4, 1.0, 6.0):
            z = 2.0 * math.sqrt(lam * mu * t * y)
            want = (
                math.sqrt(lam * mu * t / y)
                * scipy_special.i1e(z)
                * math.exp(z - lam * t - mu * y)
            )
            assert h_density(y, t, P) == pytest.approx(want, rel=1e-13)


def test_h_density_broadcasts():
    ys = np.array([0.5, 1.0, 2.0])
    out = h_density(ys, 1.0, P)
    assert out.shape == (3,)
    assert out[1] == h_density(1.0, 1.0, P)
    ts = np.array([0.5, 1.5, 2.5])
    both = h_density(ys, ts, P)
    assert both[2] == h_density(2.0, 2.5, P)
    assert isinstance(h_density(1.0, 1.0, P), float)


def test_h_density_mass_equals_jump_probability():
    # integrating out the displacement leaves P(at least one upward jump
    # by t) = 1 - e^{-lam t}
    for t in (0.5, 2.0):
        res = integrate(lambda y: h_density(y, t, P), 0.0, np.inf, tol=1e-11)
        assert res.value == pytest.approx(1.0 - math.exp(-P.lam * t), rel=1e-9)


def _displacement_fd(seed: int, n: int, t: float, x: float, y: float, half: float) -> float:
    """Independent oracle: finite difference of the simulated subdistribution
    P[accumulated jumps <= y, no boundary return] at up-clock time t.

    Runs the process on the up-phase clock: each exp(lam) up phase ends with
    an exp(mu) downward jump, and a path dies when the jumps overtake the
    height x plus the elapsed up time.  Uses numpy's generator directly so
    no code is shared with the package's samplers.
    """
    rng = np.random.default_rng(seed)
    up_time = np.zeros(n)
    jumps = np.zeros(n)
    active = np.ones(n, bool)
    survived = np.zeros(n, bool)
    disp = np.full(n, np.nan)
    while active.any():
        idx = np.flatnonzero(active)
        up_time[idx] += rng.exponential(1.0 / P.lam, idx.size)
        past = up_time[idx] > t
        done = idx[past]
        survived[done] = True
        disp[done] = jumps[done]
        idx = idx[~past]
        jumps[idx] += rng.exponential(1.0 / P.mu, idx.size)
        crossed = jumps[idx] >= up_time[idx] + x
        active[done] = False
        active[idx[crossed]] = False
    lo = np.count_nonzero(survived & (disp <= y - half))
    hi = np.count_nonzero(survived & (disp <= y + half))
    return (hi - lo) / (n * 2.0 * half)


def test_g0_matches_simulated_displacement_fd():
    # 0.004 is about 4 SE of the windowed estimator at this sample size;
    # the window-averaging bias is two orders of magnitude smaller
    est = _displacement_fd(1234, 800_000, t=1.0, x=0.0, y=0.5, half=0.05)
    assert abs(est - float(g0_subdensity(0.5, 1.0, P))) < 0.004


def test_gx_matches_simulated_displacement_fd():
    est = _displacement_fd(5678, 800_000, t=1.0, x=P.x, y=1.5, half=0.05)
    assert abs(est - float(gx_subdensity(1.5, 1.0, P))) < 0.004


def test_g0_frozen_value():
    assert g0_subdensity(0.4, 1.0, P) == pytest.approx(0.0806948457017696204, rel=1e-12)


def test_gx_frozen_value():
    assert gx_subdensity(1.5, 1.0, P) == pytest.approx(0.0746337323067487991, rel=1e-11)


def test_gx_continuous_across_start_height():
    lo = gx_subdensity(P.x - 1e-9, 1.0, P)
    hi = gx_subdensity(P.x + 1e-9, 1.0, P)
    assert hi == pytest.approx(lo, rel=1e-6)


def test_g0_mass_complements_first_passage():
    # the displacement law on {no return by t} has an atom of size
    # e^{-lam t} at zero displacement (no jump at all); continuous mass
    # plus atom must complement the first-passage CDF
    t = 1.0
    mass = integrate(lambda y: g0_subdensity(y, t, P), 0.0, t, tol=1e-11).value
    passed = integrate(lambda s: psi0(s, P), 0.0, t, tol=1e-11).value
    assert mass + math.exp(-P.lam * t) == pytest.approx(1.0 - passed, rel=1e-9)


def test_gx_mass_complements_first_passage():
    t = 1.0
    mass = (
        integrate(lambda y: gx_subdensity(y, t, P), 0.0, P.x, tol=1e-10).value
        + integrate(lambda y: gx_subdensity(y, t, P), P.x, P.x + t, tol=1e-10).value
    )
    passed = integrate(lambda s: psi_x_series(s, P), 0.0, t, tol=1e-10).value
    assert mass + math.exp(-P.lam * t) == pytest.approx(1.0 - passed, rel=1e-8)


def test_gx_at_zero_height_delegates():
    p0 = with_(P, x=0.0)
    assert gx_subdensity(0.25, 1.0, p0) == g0_subdensity(0.25, 1.0, p0)


# ---------------------------------------------------------------------------
# first-passage density from height x
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, x, want",
    [
        (0.5, 1.0, 0.6059772128676177571301),
        (1.0, 1.0, 0.330943803205091997923),
        (2.0, 1.0, 0.1171564306556316591372),
        (5.0, 1.0, 0.00983347058341447667519),
        (1.0, 2.0, 0.3580733794515035367381),
        (1.0, 0.5, 0.3022152101586774706523),
    ],
)
def test_psi_x_series_frozen(t, x, want):
    assert psi_x_series(t, with_(P, x=x)) == pytest.approx(want, rel=1e-12)


def test_psi_x_series_large_height():
    # the printed double series cancels most of its digits here and comes
    # out 19% high; reference agreed by two mpmath routes at 80 digits
    p = ModelParams(lam=10.0, mu=1.0, x=20.0)
    assert psi_x_series(3.95, p) == pytest.approx(0.061865407534733867128544, rel=1e-12)


@pytest.mark.parametrize("t, x", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0)])
def test_psi_x_series_vs_quadrature(t, x):
    p = with_(P, x=x)
    assert psi_x_series(t, p) == pytest.approx(psi_x_integral(t, p), rel=1e-8)


def test_psi_x_internal_routes_agree_on_overlap_band():
    # the printed double series (test oracle) against the production
    # Bessel-order mixture over the band t*sqrt(lam*mu) in [0.01, 25],
    # for rate triples on which the printed series does not cancel
    ctrl = SeriesControl(rel_tol=1e-15, max_terms=2000)
    for lam, mu, x in ((2.0, 0.5, 1.0), (2.0, 1.5, 2.0), (2.0, 0.1, 1.0), (1000.0, 1.0, 1.0)):
        ts = np.geomspace(0.01, 25.0, 13) / math.sqrt(lam * mu)
        mixture = _psi_x_bessel(ts, x, lam, mu)
        for t, got in zip(ts, mixture):
            direct = _psi_x_printed(float(t), x, lam, mu, ctrl)
            assert got == pytest.approx(direct, rel=1e-12)


def test_psi_x_small_height_approaches_boundary_law():
    p = with_(P, x=1e-6)
    for t in (0.5, 2.0):
        assert psi_x_series(t, p) == pytest.approx(psi0(t, P), rel=1e-4)


def test_psi_x_normalizes_across_route_switch():
    # the semi-infinite integral spans small and large time scales alike
    res = integrate(lambda t: psi_x_series(t, P), 0.0, np.inf, tol=1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_psi_x_integral_boundary_start_recovers_boundary_law():
    p0 = with_(P, x=0.0)
    assert psi_x_integral(1.0, p0) == pytest.approx(float(psi0(1.0, P)), rel=1e-8)


def test_psi_x_integral_small_time_limit():
    # with almost no time for a reversal, only the immediate down-crossing
    # head term survives
    want = P.lam * math.exp(-P.mu * P.x)
    assert psi_x_integral(1e-6, P) == pytest.approx(want, rel=1e-5)


def test_psi_x_array_matches_scalars():
    ts = np.array([0.5, 5.0, 40.0])
    vec = psi_x_series(ts, P)
    for t, v in zip(ts, vec):
        assert v == psi_x_series(float(t), P)


# ---------------------------------------------------------------------------
# lifetime densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "y, want",
    [
        (1.0, 0.323841588566107949232),
        (3.0, 0.0619829040317266962981),
    ],
)
def test_pdf_c0_frozen(y, want):
    assert pdf_c0(y, P) == pytest.approx(want, rel=1e-12)


def test_pdf_c0_boundary_right_limit():
    assert pdf_c0(0.0, P) == pytest.approx(0.5 * P.lam, rel=1e-15)
    assert pdf_c0(1e-8, P) == pytest.approx(0.5 * P.lam, rel=1e-4)


def test_pdf_c0_is_half_scale_of_first_passage():
    ys = np.array([0.3, 1.7, 6.0])
    np.testing.assert_allclose(pdf_c0(ys, P), 0.5 * psi0(ys / 2.0, P), rtol=1e-14)


def test_pdf_c0_lambda_scaled_is_negative_control():
    ys = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(
        pdf_c0_lambda_scaled(ys, P), P.lam * pdf_c0(ys, P), rtol=0.0, atol=0.0
    )
    mass = integrate(lambda y: pdf_c0_lambda_scaled(y, P), 0.0, np.inf, tol=1e-10).value
    assert mass == pytest.approx(P.lam, rel=1e-8)
    assert abs(mass - 1.0) > 0.5


def test_pdf_cx_support_and_boundary():
    ys = np.array([0.0, 0.5, 1.0, 3.0])
    out = pdf_cx(ys, P)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(0.5 * P.lam * math.exp(-P.mu * P.x), rel=1e-15)
    # above the direct travel time: half-scale of the first passage
    assert out[3] == pytest.approx(0.5 * psi_x_series(1.0, P), rel=1e-14)


def test_pdf_cx_normalizes():
    # the two large-height sets are where the paper's printed double series
    # loses its digits (it integrated to 1.058 and 1.0008 there)
    for p in (P, ModelParams(lam=10.0, mu=1.0, x=20.0), ModelParams(lam=1000.0, mu=1.0, x=20.0)):
        res = integrate(lambda y: pdf_cx(y, p), p.x, np.inf, tol=1e-10)
        assert res.value == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize(
    "y, alpha, want",
    [
        (0.5, 0.5, 0.3536412512698178129394),
        (1.0, 0.5, 0.2623273707000056978992),
        (2.0, 0.5, 0.1588435902146719323213),
        (5.0, 0.5, 0.04978208213192040477226),
        (0.5, 0.1, 0.08623811491983390154),
        (2.0, 0.1, 0.066406952454803707467),
        (5.0, 0.1, 0.04956790448352557387),
        (0.5, 0.9, 0.52216158344901735501),
        (2.0, 0.9, 0.13988146576865290027),
        (5.0, 0.9, 0.022767002242098000942),
    ],
)
def test_pdf_a0_frozen(y, alpha, want):
    assert pdf_a0(y, with_(P, alpha=alpha)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "y, alpha, want",
    [
        (2.0, 0.1, 0.042053919798354730529),
        (40.0, 0.1, 0.0068709640408294460816),
        (2.0, 0.5, 0.11045358378963794523),
    ],
)
def test_pdf_a0_frozen_high_mu(y, alpha, want):
    assert pdf_a0(y, with_(P_MU_HI, alpha=alpha)) == pytest.approx(want, rel=1e-12)


def test_pdf_a0_boundary_right_limit():
    assert pdf_a0(0.0, P) == pytest.approx(0.5 * P.alpha * P.lam, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_pdf_a0_methods_agree(alpha):
    # production Bessel mixture against the two direct double-series oracles
    p = with_(P, alpha=alpha)
    ctrl = SeriesControl(rel_tol=1e-13, max_terms=2000)
    for y in (0.5, 2.0, 5.0):
        base = pdf_a0(y, p)
        assert _pdf_a0_scalar_series(y, p, ctrl, combined=True) == pytest.approx(base, rel=1e-9)
        assert _pdf_a0_scalar_series(y, p, ctrl, combined=False) == pytest.approx(base, rel=1e-9)


def test_pdf_a0_order_sum_overflow_is_convergence_error():
    # at small alpha the order-m weight m sqrt(rho) ((1 - alpha) sqrt(rho))^(m-1)
    # leaves the longdouble range long before the Bessel factors decay
    p = ModelParams(10.0, 1.0, 1e-3)
    for y in (2000.0, 3000.0):
        with pytest.raises(ConvergenceError):
            pdf_a0(y, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            pdf_a0(np.linspace(0.0, 1e4, 40), p)


def test_pdf_a0_normalizes():
    for alpha in (0.1, 0.9):
        p = with_(P, alpha=alpha)
        res = integrate(lambda y: pdf_a0(y, p), 0.0, np.inf, tol=1e-10)
        assert res.value == pytest.approx(1.0, rel=1e-8)


def test_geometric_pmf_values():
    assert geometric_pmf(1, P) == 0.5
    assert geometric_pmf(3, P) == pytest.approx(0.125, rel=1e-15)
    assert geometric_pmf(1, with_(P, alpha=1.0)) == 1.0
    assert geometric_pmf(2, with_(P, alpha=1.0)) == 0.0


# ---------------------------------------------------------------------------
# moment generating functions
# ---------------------------------------------------------------------------


def test_mgf_frozen_values():
    assert mgf_c0(0.2, P) == pytest.approx(1.459687576256715131351, rel=1e-14)
    assert mgf_a0(0.2, P) == pytest.approx(2.701562118716424343244, rel=1e-14)
    assert mgf_cx(0.2, P) == pytest.approx(2.2435652097346948, rel=1e-13)


def test_mgf_c0_matches_quadrature():
    got = numeric_mgf(lambda y: pdf_c0(y, P), 0.2)
    assert got == pytest.approx(mgf_c0(0.2, P), rel=1e-7)


def test_mgf_tx_matches_quadrature():
    # the jump-scale passage MGF against the exponentially weighted
    # first-passage density, which spans both evaluation routes
    got = numeric_mgf(lambda t: psi_x_series(t, P), 0.2)
    assert got == pytest.approx(mgf_tx(0.2, P), rel=1e-6)


def test_mgf_a0_matches_quadrature_at_negative_argument():
    # negative arguments are always inside the domain
    got = numeric_mgf(lambda y: pdf_a0(y, P), -1.0)
    assert got == pytest.approx(mgf_a0(-1.0, P), rel=1e-7)


def test_mgf_domain_bounds():
    dom = mgf_domain(P)
    assert dom.bound_c == pytest.approx(0.25, rel=1e-15)
    assert dom.bound_t == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DomainError):
        mgf_c0(0.2501, P)
    with pytest.raises(DomainError):
        mgf_tx(0.501, P)


def test_mgf_domain_bound_a_is_pole_below_bound_c():
    # for alpha < 1 - sqrt(mu/lam) the absorption MGF has a pole below
    # bound_c, where the cycle MGF reaches 1 / (1 - alpha)
    p = ModelParams(lam=2.0, mu=0.5, alpha=1e-4)
    dom = mgf_domain(p)
    assert dom.bound_a == pytest.approx(7.4997499749975e-05, rel=1e-12)
    assert mgf_c0(dom.bound_a, p) == pytest.approx(1.0 / (1.0 - p.alpha), rel=1e-12)
    assert mgf_a0(0.99 * dom.bound_a, p) > 1.0
    assert mgf_domain(P).bound_a == mgf_domain(P).bound_c


@pytest.mark.parametrize("f, x", [(mgf_a0, 0.0), (mgf_ax, 1.0)])
def test_mgf_absorption_raises_past_pole(f, x):
    # past the pole the closed form turns negative
    with pytest.raises(DomainError):
        f(0.01, ModelParams(lam=2.0, mu=0.5, alpha=1e-4, x=x))


@pytest.mark.parametrize(
    "f, p, bound",
    [
        (mgf_cx, ModelParams(lam=500.0, mu=1.0, x=15.0), lambda d: 0.5 * d.bound_c),
        (mgf_ax, ModelParams(lam=500.0, mu=1.0, x=15.0), lambda d: 0.5 * d.bound_c),
        (mgf_tx, ModelParams(lam=1e4, mu=1.0, x=200.0), lambda d: d.bound_t),
    ],
    ids=["mgf_cx", "mgf_ax", "mgf_tx"],
)
def test_mgf_height_factor_overflow_is_domain_error(f, p, bound):
    with pytest.raises(DomainError):
        f(bound(mgf_domain(p)), p)


def test_mgfs_are_one_at_zero():
    for f in (mgf_c0, mgf_a0, mgf_cx, mgf_ax, mgf_tx):
        assert f(0.0, P) == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-2.0, max_value=0.2499))
def test_mgf_c0_satisfies_quadratic(s):
    # the cycle MGF is the decreasing root of mu M^2 - (lam + mu - 2s) M + lam
    m = mgf_c0(s, P)
    resid = P.mu * m * m - (P.lam + P.mu - 2.0 * s) * m + P.lam
    assert resid == pytest.approx(0.0, abs=1e-10 * max(1.0, abs(m)))


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=0.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_mgf_ax_is_geometric_mixture(s, alpha, x):
    # total lifetime = first visit + geometric number of extra cycles, so
    # M_Ax = M_Cx * alpha / (1 - (1-alpha) M_C0); safe for s <= 0 where
    # M_C0 <= 1
    p = with_(P, alpha=alpha, x=x)
    want = mgf_cx(s, p) * alpha / (1.0 - (1.0 - alpha) * mgf_c0(s, p))
    assert mgf_ax(s, p) == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.0, max_value=0.2499), st.floats(min_value=0.0, max_value=3.0))
def test_mgf_time_scale_relation(s, x):
    # first visit time = direct travel x + twice the jump-scale passage
    p = with_(P, x=x)
    assert mgf_cx(s, p) == pytest.approx(math.exp(s * x) * mgf_tx(2.0 * s, p), rel=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_c0_frozen():
    want = [4.0 / 3.0, 4.740740740740740740741, 31.6049382716049382716, 325.8820301783264746228]
    for n, w in enumerate(want, start=1):
        assert moment_c0(n, P) == pytest.approx(w, rel=1e-12)
    assert moment_c0(0, P) == 1.0


def test_moment_a0_frozen():
    want = [8.0 / 3.0, 16.59259259259259259259, 167.5061728395061728395]
    for n, w in enumerate(want, start=1):
        assert moment_a0(n, P) == pytest.approx(w, rel=1e-12)


def test_moment_cx_frozen():
    want = [3.0, 43.0 / 3.0, 108.1851851851851851852]
    for n, w in enumerate(want, start=1):
        assert moment_cx(n, P) == pytest.approx(w, rel=1e-12)


def test_moment_ax_frozen():
    want = [13.0 / 3.0, 827.0 / 27.0, 323.9382716049382716049]
    for n, w in enumerate(want, start=1):
        assert moment_ax(n, P) == pytest.approx(w, rel=1e-12)


def test_moments_frozen_other_height():
    p = with_(P, x=2.5)
    cx = [5.5, 39.13888888888888888889, 369.93055555555555556]
    ax = [41.0 / 6.0, 62.101851851851851852, 747.12808641975308642]
    for n in (1, 2, 3):
        assert moment_cx(n, p) == pytest.approx(cx[n - 1], rel=1e-12)
        assert moment_ax(n, p) == pytest.approx(ax[n - 1], rel=1e-12)


def test_moments_at_zero_height_delegate():
    p0 = with_(P, x=0.0)
    for n in (1, 2, 3):
        assert moment_cx(n, p0) == moment_c0(n, p0)
        assert moment_ax(n, p0) == moment_a0(n, p0)


def test_closed_mean_var_frozen():
    mv = closed_mean_var(P)
    assert mv == MeanVar(e_cx=pytest.approx(3.0), var_cx=pytest.approx(16.0 / 3.0),
                         e_ax=pytest.approx(13.0 / 3.0), var_ax=pytest.approx(320.0 / 27.0))
    # consistency with the raw moments
    assert mv.var_cx == pytest.approx(moment_cx(2, P) - moment_cx(1, P) ** 2, rel=1e-12)
    assert mv.var_ax == pytest.approx(moment_ax(2, P) - moment_ax(1, P) ** 2, rel=1e-12)


def test_moments_match_quadrature():
    for n in (1, 2):
        got = numeric_moment(lambda y: pdf_c0(y, P), n)
        assert got == pytest.approx(moment_c0(n, P), rel=1e-7)
        got = numeric_moment(lambda y: pdf_a0(y, P), n)
        assert got == pytest.approx(moment_a0(n, P), rel=1e-7)


def test_moment_a0_degenerate_branch():
    # alpha = 1 - mu/lam zeroes the leading denominator of the closed h-sum;
    # the moments there are the analytic limits
    p = with_(P, alpha=0.75)
    assert moment_a0(1, p) == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert moment_a0(2, p) == pytest.approx(7.901234567901234568, rel=1e-12)
    assert moment_a0(3, p) == pytest.approx(61.102880658436213992, rel=1e-12)
    assert moment_ax(1, p) == pytest.approx(31.0 / 9.0, rel=1e-12)
    assert moment_ax(2, p) == pytest.approx(18.975308641975308642, rel=1e-12)


def test_moment_a0_continuous_at_branch_edge():
    # values near alpha = 1 - mu/lam, where the closed h-sum degenerates,
    # differ only by the O(d alpha) sensitivity of the moment itself
    inside = moment_a0(2, with_(P, alpha=0.7501))
    outside = moment_a0(2, with_(P, alpha=0.7513))
    assert inside == pytest.approx(outside, rel=2e-2)


@pytest.mark.parametrize(
    "alpha, rtol",
    [(0.3, 1e-11), (0.76, 1e-8), (0.9, 1e-11)],
)
def test_moment_a0_routes_agree(alpha, rtol):
    # renewal recursion vs the closed h-sum oracle; near alpha = 1 - mu/lam
    # (alpha = 0.76) the h-sum cancels several digits
    p = with_(P, alpha=alpha)
    for n in (1, 2, 3):
        assert moment_a0(n, p) == pytest.approx(_moment_a0_hsum(n, p, DEFAULT_CONTROL), rel=rtol)


def test_moment_c0_budget_escalation_near_equal_rates():
    # the Gauss-2F1 oracle needs thousands of terms here and is still ~5e-11
    # off; the Taylor recursion is exact at the default budget
    p = ModelParams(lam=2.0, mu=1.5, alpha=0.5, x=1.0)
    assert moment_c0(1, p) == pytest.approx(4.0, rel=1e-14)
    assert moment_c0(2, p) == pytest.approx(128.0, rel=1e-14)


@pytest.mark.parametrize(
    "lam, mu, alpha, x",
    [(1.05, 1.0, 0.5, 0.0), (10.0, 1.0, 1e-3, 20.0), (1000.0, 1.0, 1.0, 1.0),
     (1000.0, 1.0, 1e-3, 20.0), (2.0, 1.9999, 0.3, 5.0)],
)
def test_moments_match_closed_mean_var_at_extremes(lam, mu, alpha, x):
    # rates near equal and far apart, alpha near 0 and large heights
    p = ModelParams(lam=lam, mu=mu, alpha=alpha, x=x)
    mv0 = closed_mean_var(with_(p, x=0.0))
    mv = closed_mean_var(p)
    for fn, mean, var in (
        (moment_c0, mv0.e_cx, mv0.var_cx),
        (moment_a0, mv0.e_ax, mv0.var_ax),
        (moment_cx, mv.e_cx, mv.var_cx),
        (moment_ax, mv.e_ax, mv.var_ax),
    ):
        assert fn(1, p) == pytest.approx(mean, rel=1e-12)
        assert fn(2, p) == pytest.approx(var + mean * mean, rel=1e-12)


def test_moment_a0_near_degenerate_alpha_frozen():
    # mpmath value; just outside alpha = 1 - mu/lam, where the closed h-sum
    # loses digits
    assert moment_a0(4, ModelParams(2.0, 0.5, 0.7513, 1.0)) == pytest.approx(
        689.6230430056784541558887, rel=1e-12
    )


def test_moment_overflowing_double_is_domain_error():
    with pytest.raises(DomainError):
        moment_c0(60, ModelParams(1.01, 1.0))


def test_moment_order_validation():
    for fn in (moment_c0, moment_a0, moment_cx, moment_ax):
        with pytest.raises(DomainError):
            fn(-1, P)
        with pytest.raises(DomainError):
            fn(1.5, P)


# ---------------------------------------------------------------------------
# always-absorb degeneracies
# ---------------------------------------------------------------------------


def test_alpha_one_collapses_to_single_cycle():
    p1 = with_(P, alpha=1.0)
    ys = np.array([0.0, 0.5, 2.0, 5.0])
    np.testing.assert_allclose(pdf_a0(ys, p1), pdf_c0(ys, p1), rtol=1e-12)
    for n in (1, 2, 3):
        assert moment_a0(n, p1) == moment_c0(n, p1)
    for s in (-1.0, 0.0, 0.2):
        assert mgf_a0(s, p1) == pytest.approx(mgf_c0(s, p1), rel=1e-14)
    mv = closed_mean_var(p1)
    assert mv.e_ax == pytest.approx(mv.e_cx, rel=1e-15)
    assert mv.var_ax == pytest.approx(mv.var_cx, rel=1e-15)


# ---------------------------------------------------------------------------
# joint and conditional within-cycle laws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "y, tau, t, mu, want",
    [
        (0.5, 6.0, 5.0, 0.5, 6.6134065062902799572e-5),
        (2.5, 6.0, 5.0, 0.5, 7.7729793101557164362e-4),
        (4.9, 6.0, 5.0, 0.5, 0.0018472281795931200099),
        (1.0, 4.0, 2.0, 0.5, 0.0076355219972590906663),
        (0.5, 6.0, 5.0, 1.5, 2.7665630101856884677e-5),
        (2.5, 6.0, 5.0, 1.5, 0.0027024160768311848479),
        (4.9, 6.0, 5.0, 1.5, 0.013299183462023750729),
        (1.0, 4.0, 2.0, 1.5, 0.01910853735267985011),
    ],
)
def test_joint_subdist_frozen(y, tau, t, mu, want):
    assert joint_subdist(y, tau, t, with_(P, mu=mu)) == pytest.approx(want, rel=5e-12)


def test_joint_increasing_in_displacement():
    vals = [joint_subdist(y, 6.0, 5.0, P) for y in (0.5, 1.5, 2.5, 3.5, 4.5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_joint_matches_constructive_quadrature():
    # independent route: condition on the accumulated jump value u at time t;
    # the remaining path must first reach level t - u in time tau - t, so
    # the joint value is the no-jump atom plus the displacement subdensity
    # integrated against the level-crossing density
    y, tau, t = 0.5, 6.0, 5.0
    atom_part = math.exp(-P.lam * t) * psi_x_series(tau - t, with_(P, x=t))

    def straddle(us):
        us = np.atleast_1d(np.asarray(us, float))
        g = np.asarray(g0_subdensity(us, t, P), float)
        psi = np.array([psi_x_series(tau - t, with_(P, x=t - float(u))) for u in us])
        return g * psi

    constructive = atom_part + integrate(straddle, 0.0, y, tol=1e-9).value
    assert joint_subdist(y, tau, t, P) == pytest.approx(constructive, rel=1e-4)


def test_joint_saturates_to_marginal():
    # at y = t the displacement constraint is vacuous, leaving the first
    # return density itself; this reconciles the bracket series with the
    # plain Bessel form
    assert joint_subdist(5.0, 6.0, 5.0, P) == pytest.approx(psi0(6.0, P), rel=1e-9)
    assert joint_subdist(2.0, 4.0, 2.0, P_MU_HI) == pytest.approx(
        psi0(4.0, P_MU_HI), rel=1e-9
    )


def test_joint_at_zero_is_atom_numerator():
    got = joint_subdist(0.0, 6.0, 5.0, P)
    assert got == pytest.approx(cond_atom(5.0, 6.0, P) * psi0(6.0, P), rel=1e-12)


@pytest.mark.parametrize(
    "t, tau, mu, want",
    [
        (5.0, 6.0, 0.5, 0.0073597081365963189879),
        (2.0, 4.0, 0.5, 0.325016786230464),
        (5.0, 6.0, 1.5, 6.6713783407599735583e-5),
    ],
)
def test_cond_atom_frozen(t, tau, mu, want):
    assert cond_atom(t, tau, with_(P, mu=mu)) == pytest.approx(want, rel=5e-12)


def test_cond_cdf_frozen():
    assert cond_cdf_within_cycle(2.5, 5.0, 6.0, P) == pytest.approx(
        0.56168445074637001784, rel=5e-12
    )
    assert cond_cdf_within_cycle(2.5, 5.0, 6.0, P_MU_HI) == pytest.approx(
        0.77986443931454893867, rel=5e-12
    )


def test_cond_cdf_endpoints():
    assert cond_cdf_within_cycle(0.0, 5.0, 6.0, P) == 0.0
    top = cond_cdf_within_cycle(5.0, 5.0, 6.0, P)
    assert top == pytest.approx(1.0 - cond_atom(5.0, 6.0, P), rel=1e-12)


def test_cond_cdf_monotone():
    vals = [cond_cdf_within_cycle(v, 5.0, 6.0, P) for v in (1.0, 2.0, 3.0, 4.0)]
    assert all(0.0 < a < b < 1.0 for a, b in zip(vals, vals[1:]))


def test_cond_pdf_positive_inside():
    assert cond_pdf_within_cycle(2.5, 5.0, 6.0, P) > 0.0


def test_cycle_point_bundles_componentwise():
    cp = cycle_point(2.5, 5.0, 6.0, P)
    assert isinstance(cp, CyclePoint)
    assert cp.atom_prob == cond_atom(5.0, 6.0, P)
    assert cp.cdf == cond_cdf_within_cycle(2.5, 5.0, 6.0, P)
    assert cp.pdf == cond_pdf_within_cycle(2.5, 5.0, 6.0, P)
    assert (cp.t, cp.tau, cp.xval) == (5.0, 6.0, 2.5)


def test_joint_kernel_matches_scalar_oracle():
    # 25 seeded sets from the ranges of the benchmark's conditional workload
    # (lam/mu on [1.1, 20], mu on [0.1, 1.5], t on [1, 6], tau - t on
    # [0.25, 3]), each at four CDF points in one array call: 100 lanes
    rng = np.random.default_rng(4801)
    for _ in range(25):
        mu = math.exp(rng.uniform(math.log(0.1), math.log(1.5)))
        lam = mu * math.exp(rng.uniform(math.log(1.1), math.log(20.0)))
        t = rng.uniform(1.0, 6.0)
        tau = t + rng.uniform(0.25, 3.0)
        x = rng.uniform(0.02, 0.98, 4) * t
        ys, ts = (t - x) / 2.0, (t + x) / 2.0
        p = ModelParams(lam, mu)
        want = [_joint_subdist_scalar(float(y), tau, float(s), p) for y, s in zip(ys, ts)]
        np.testing.assert_allclose(joint_subdist(ys, tau, ts, p), want, rtol=1e-13, atol=0.0)


def test_conditional_law_batch_equals_pointwise():
    p = ModelParams(3.0, 0.7)
    t, tau = 4.0, 5.5
    # lanes with y = 0, y = t and interior points, at different t
    ys = np.array([0.0, 1.3, 2.0, 3.9, 0.4, 4.0])
    ts = np.array([2.0, 2.5, 2.0, 3.9, 4.5, 4.0])
    got = joint_subdist(ys, tau, ts, p)
    assert got.shape == ys.shape
    want = [joint_subdist(float(y), tau, float(s), p) for y, s in zip(ys, ts)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    grid = joint_subdist(ys[:, None] / 4.0, tau, np.array([1.0, 4.0]), p)
    assert grid.shape == (6, 2)

    xs = np.array([0.0, 0.01, 1.7, 3.2, t])
    got = cond_cdf_within_cycle(xs, t, tau, p)
    want = [cond_cdf_within_cycle(float(v), t, tau, p) for v in xs]
    assert got[0] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    xs = np.array([0.01, 1.7, 3.2, 3.99])
    got = cond_pdf_within_cycle(xs, t, tau, p)
    want = [cond_pdf_within_cycle(float(v), t, tau, p) for v in xs]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert isinstance(cond_pdf_within_cycle(1.7, t, tau, p), float)


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(0.1, 1.5),
    r1=st.floats(1.1, 20.0),
    r2=st.floats(1.1, 20.0),
    t=st.floats(1.0, 6.0),
    gap=st.floats(0.25, 3.0),
)
def test_conditional_law_depends_on_rates_only_through_product(mu, r1, r2, t, gap):
    # given the return time, (lam, mu) -> (lam c, mu / c) changes the path
    # likelihood lam^k mu^(k-1) e^{-(lam+mu) tau} by a factor that depends
    # on tau alone; c = sqrt(r2 / r1) moves the rate ratio from r1 to r2.
    # The CDF is formed as 1 - F / psi0, so its error is absolute, a few
    # units of roundoff of 1, where the CDF itself is small (near x = 0)
    lam, c = r1 * mu, math.sqrt(r2 / r1)
    tau = t + gap
    xs = t * np.array([0.05, 0.25, 0.5, 0.75, 0.95, 1.0])
    p, q = ModelParams(lam, mu), ModelParams(lam * c, mu / c)
    assert cond_atom(t, tau, q) == pytest.approx(cond_atom(t, tau, p), rel=1e-11)
    np.testing.assert_allclose(
        cond_cdf_within_cycle(xs, t, tau, q), cond_cdf_within_cycle(xs, t, tau, p), rtol=1e-11, atol=1e-15
    )


# ---------------------------------------------------------------------------
# domain validation
# ---------------------------------------------------------------------------


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(lam=0.5, mu=2.0)  # mu >= lam
    with pytest.raises(DomainError):
        ModelParams(lam=2.0, mu=2.0)
    with pytest.raises(DomainError):
        ModelParams(lam=2.0, mu=0.5, alpha=0.0)
    with pytest.raises(DomainError):
        ModelParams(lam=2.0, mu=0.5, alpha=1.2)
    with pytest.raises(DomainError):
        ModelParams(lam=2.0, mu=0.5, x=-0.1)
    with pytest.raises(DomainError):
        ModelParams(lam=math.nan, mu=0.5)


def test_domain_errors_everywhere():
    with pytest.raises(DomainError):
        h_density(0.0, 1.0, P)
    with pytest.raises(DomainError):
        h_density(1.0, 0.0, P)
    with pytest.raises(DomainError):
        g0_subdensity(1.0, 1.0, P)  # y must stay below t
    with pytest.raises(DomainError):
        gx_subdensity(2.0, 1.0, P)  # y must stay below x + t
    with pytest.raises(DomainError):
        psi0(0.0, P)
    with pytest.raises(DomainError):
        psi_x_series(1.0, with_(P, x=0.0))
    with pytest.raises(DomainError):
        psi_x_series(-1.0, P)
    with pytest.raises(DomainError):
        psi_x_integral(0.0, P)
    with pytest.raises(DomainError):
        pdf_c0(-0.5, P)
    with pytest.raises(DomainError):
        pdf_cx(2.0, with_(P, x=0.0))
    with pytest.raises(DomainError):
        pdf_a0(-1.0, P)
    with pytest.raises(DomainError):
        geometric_pmf(0, P)
    with pytest.raises(DomainError):
        joint_subdist(1.0, 2.0, 3.0, P)  # tau <= t
    with pytest.raises(DomainError):
        joint_subdist(3.0, 6.0, 2.0, P)  # y > t
    with pytest.raises(DomainError):
        joint_subdist(-0.5, 6.0, 2.0, P)
    with pytest.raises(DomainError):
        cond_atom(5.0, 5.0, P)
    with pytest.raises(DomainError):
        cond_cdf_within_cycle(5.5, 5.0, 6.0, P)  # xval > t
    with pytest.raises(DomainError):
        cond_cdf_within_cycle(-0.1, 5.0, 6.0, P)
