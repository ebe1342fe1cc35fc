"""Series evaluators: frozen reference values and algebraic properties.

Reference values were computed with mpmath at 30 significant digits and
are pasted as literals, so the suite does not need mpmath at run time
except for the optional cross-grids.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routes import _bessel_i_scaled

from elastic_telegraph import analytic, specfun
from elastic_telegraph.analytic import ModelParams, psi0
from elastic_telegraph.errors import ConvergenceError, DomainError
from elastic_telegraph.specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    _bessel_i_scaled_sweep,
    bessel_i,
    hyper_0f1,
    hyper_1f2,
    hyper_2f1,
)

mpmath = pytest.importorskip("mpmath")


# ---------------------------------------------------------------------------
# frozen values (mpmath, 30 dps)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, z, want",
    [
        (1, 2.0, 1.590636854637329063382),
        (0, 3.0, 4.880792585865024085611),
        (2, 7.0, 124.0113105474452835824),
        (1, 40.0, 14707396163259352.73882),
        (3, 0.03, 5.625316413369229614973e-7),
    ],
)
def test_bessel_i_frozen(n, z, want):
    assert bessel_i(n, z) == pytest.approx(want, rel=5e-15)


def test_bessel_i_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(2, 0.0) == 0.0


@pytest.mark.parametrize(
    "b, z, want",
    [
        (2.0, 1.0, 1.590636854637329063382),  # equals I_1(2)
        (3.0, -2.5, 0.3878949134541686075988),
        (1.0, 6.25, 27.23987182360444689454),
    ],
)
def test_hyper_0f1_frozen(b, z, want):
    assert hyper_0f1(b, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "a, b, c, z, want",
    [
        (-0.5, 1.0, 1.5, 0.25, 0.915612490872246681403),
        (-0.5, 2.0, 2.5, 30.0, -8.21604139812359373547),
        (0.5, 1.5, 2.0, 10.0, 5.841342256962566858581),
        # equals (I_0(2 sqrt(3)) - 1) / 3
        (1.0, 2.0, 2.0, 3.0, 2.052998845601461697941),
    ],
)
def test_hyper_1f2_frozen(a, b, c, z, want):
    assert hyper_1f2(a, b, c, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "a, b, c, z, want",
    [
        (1.5, 2.0, 2.0, 0.5, 2.828427124746190097603),  # (1-z)^(-3/2)
        (1.0, 1.5, 2.0, 0.64, 25.0 / 12.0),
        (-3.0, 5.0, 7.0, 0.3, 2747.0 / 5600.0),  # terminating, exact rational
    ],
)
def test_hyper_2f1_frozen(a, b, c, z, want):
    assert hyper_2f1(a, b, c, z) == pytest.approx(want, rel=1e-13)


def test_hyper_2f1_terminating_outside_disc():
    # polynomial case is valid for any z:
    # 1 + (-2)(1)/3 * 2 + (-2)(-1)(1)(2)/(3*4) * 4/2 = 1 - 4/3 + 2/3 = 1/3
    assert hyper_2f1(-2.0, 1.0, 3.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# cross-checks against mpmath on grids
# ---------------------------------------------------------------------------


def test_bessel_grid_against_mpmath():
    mpmath.mp.dps = 30
    for n in (0, 1, 2, 5, 11):
        for z in (1e-4, 0.3, 1.0, 4.5, 17.0, 90.0):
            want = float(mpmath.besseli(n, z))
            assert bessel_i(n, z) == pytest.approx(want, rel=5e-14)


def test_hyper_1f2_grid_against_mpmath():
    mpmath.mp.dps = 30
    for a in (-0.5, 0.5, 1.0, 2.5):
        for z in (0.1, 2.0, 9.0, 60.0):
            want = float(mpmath.hyp1f2(a, 2.0, 1.5, z))
            assert hyper_1f2(a, 2.0, 1.5, z) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# scaled kernels
# ---------------------------------------------------------------------------


def test_scaled_series_vs_public():
    for n in (0, 1, 4):
        for z in (0.02, 1.0, 30.0):
            got = float(_bessel_i_scaled(n, np.array([z]))[0])
            assert got == pytest.approx(bessel_i(n, z) * math.exp(-z), rel=5e-14)


def test_sweep_vs_series_kernel_mixed_batch():
    # one call mixing tiny, moderate and huge arguments: each lane's
    # recurrence and normalization must not depend on the other lanes
    z = np.array([1e-6, 0.07, 1.0, 33.0, 700.0, 6000.0], dtype=np.longdouble)
    sweep = _bessel_i_scaled_sweep(8, z)
    for n in range(9):
        direct = _bessel_i_scaled(n, z)
        ok = np.asarray(direct, float) > 1e-280
        got = np.asarray(sweep[n], float)[ok]
        want = np.asarray(direct, float)[ok]
        np.testing.assert_allclose(got, want, rtol=5e-15)


SWEEP_Z = (0.0, 1e-6, 0.07, 1.0, 33.0, 700.0, 6000.0, 2e4)
SWEEP_TOP = 600


@pytest.fixture(scope="module")
def mp_scaled_table():
    """e^{-z} I_m(z) for m = 0..SWEEP_TOP at each of SWEEP_Z, as floats.

    Direct mpmath values at the two top orders, carried down by the
    three-term recurrence in 50-digit arithmetic; the downward direction is
    stable for I_m, and evaluating every order directly costs seconds at
    z = 6000.
    """
    mpmath.mp.dps = 50
    table = np.zeros((SWEEP_TOP + 1, len(SWEEP_Z)))
    table[0, 0] = 1.0
    for j, z in enumerate(SWEEP_Z[1:], start=1):
        zm = mpmath.mpf(z)
        scale = mpmath.exp(-zm)
        up, u = mpmath.besseli(SWEEP_TOP + 1, zm), mpmath.besseli(SWEEP_TOP, zm)
        table[SWEEP_TOP, j] = float(u * scale)
        for m in range(SWEEP_TOP, 0, -1):
            up, u = u, up + 2 * m / zm * u
            table[m - 1, j] = float(u * scale)
    return table


@pytest.mark.parametrize("m_max", [0, 1, 15, 16, 17, 130, 600])
@pytest.mark.parametrize("copies", [1, 40])
def test_sweep_vs_mpmath_across_block_edges(m_max, copies, mp_scaled_table):
    # a batch of 320 lanes runs in blocks of 16 orders, so m_max = 15, 16
    # and 17 put the window's top order on either side of a block edge; the
    # 8-lane batch runs in blocks of hundreds of orders
    z = np.tile(np.array(SWEEP_Z, dtype=np.longdouble), copies)
    got = np.asarray(_bessel_i_scaled_sweep(m_max, z), float)
    assert got.shape == (m_max + 1, z.shape[0])
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    want = np.tile(mp_scaled_table[: m_max + 1], copies)
    ok = want > 1e-280
    np.testing.assert_allclose(got[ok], want[ok], rtol=5e-15)


def test_sweep_and_psi0_finite_with_double_accumulator(monkeypatch, mp_scaled_table):
    # where numpy.longdouble is plain double, the scaled values and psi0
    # must stay finite and accurate
    t = [0.5, 3.0, 40.0, 400.0]
    p = ModelParams(2.0, 0.5)
    extended = psi0(t, p)
    monkeypatch.setattr(specfun, "_LD", np.float64)
    monkeypatch.setattr(analytic, "_LD", np.float64)
    got = _bessel_i_scaled_sweep(400, np.array(SWEEP_Z))
    assert got.dtype == np.float64
    assert np.all(np.isfinite(got))
    want = mp_scaled_table[:401]
    ok = want > 1e-280
    np.testing.assert_allclose(got[ok], want[ok], rtol=1e-13)
    double = psi0(t, p)
    assert np.all(np.isfinite(double))
    np.testing.assert_allclose(double, extended, rtol=1e-12)


def test_sweep_row_zero_at_z_zero():
    out = _bessel_i_scaled_sweep(3, np.array([0.0], dtype=np.longdouble))
    assert out[0, 0] == 1.0
    assert float(np.max(np.abs(out[1:, 0]))) == 0.0


def test_psi0_non_finite_time_is_domain_error():
    for t in (math.inf, math.nan, [1.0, math.inf]):
        with pytest.raises(DomainError):
            psi0(t, ModelParams(2.0, 0.5))


def test_sweep_work_budget_raises_before_allocating():
    # t = 1e300 asks for about 1e151 orders; the lane x order budget must
    # stop it before the sweep allocates its result
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            psi0(1e300, ModelParams(2.0, 0.5))
        with pytest.raises(ConvergenceError):
            _bessel_i_scaled_sweep(10**7, np.array([1.0, 2.0], dtype=np.longdouble))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.1, max_value=50.0))
def test_bessel_three_term_recurrence(n, z):
    # I_{n-1}(z) - I_{n+1}(z) = (2n/z) I_n(z)
    lhs = bessel_i(n - 1, z) - bessel_i(n + 1, z)
    rhs = 2.0 * n / z * bessel_i(n, z)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-290)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.floats(min_value=0.01, max_value=20.0))
def test_0f1_bessel_identity(n, z):
    # I_n(z) = (z/2)^n / n! * 0F1(; n+1; z^2/4)
    want = (z / 2.0) ** n / math.factorial(n) * hyper_0f1(n + 1.0, z * z / 4.0)
    assert bessel_i(n, z) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_1f2_contiguous_shift(a, b, c, z):
    # d/dz 1F2(a;b,c;z) = (a/(b c)) 1F2(a+1;b+1,c+1;z), checked as a series
    # identity through a central difference.  Tolerance budgets the O(h^2)
    # truncation of the stencil, not the series themselves.
    h = 1e-5
    lhs = (hyper_1f2(a, b, c, z + h) - hyper_1f2(a, b, c, z - h)) / (2 * h)
    rhs = a / (b * c) * hyper_1f2(a + 1.0, b + 1.0, c + 1.0, z)
    assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-6)


# ---------------------------------------------------------------------------
# domain and convergence failures
# ---------------------------------------------------------------------------


def test_bessel_rejects_bad_order_and_argument():
    with pytest.raises(DomainError):
        bessel_i(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_i(1, -0.5)


def test_0f1_pole_is_domain_error():
    with pytest.raises(DomainError, match="Pochhammer"):
        hyper_0f1(-2.0, 1.0)


def test_1f2_pole_before_termination_is_domain_error():
    # a = -3 terminates at k = 3, but b = -1 hits zero at k = 1 first
    with pytest.raises(DomainError):
        hyper_1f2(-3.0, -1.0, 2.0, 1.0)


def test_1f2_pole_after_termination_is_fine():
    # a = -1 terminates at k = 1, pole of b = -3 sits beyond it
    got = hyper_1f2(-1.0, -3.0, 2.0, 1.5)
    assert got == pytest.approx(1.0 - 1.5 / (-3.0 * 2.0), rel=1e-15)


def test_2f1_outside_disc_is_domain_error():
    with pytest.raises(DomainError):
        hyper_2f1(0.5, 0.5, 2.0, 1.5)


def test_2f1_near_one_exhausts_budget():
    ctrl = SeriesControl(rel_tol=1e-12, max_terms=40)
    with pytest.raises(ConvergenceError) as exc:
        hyper_2f1(1.5, 2.0, 2.0, 0.98, ctrl)
    assert exc.value.terms_used >= 40


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=1e-12, max_terms=0)
    with pytest.raises(DomainError):
        SeriesControl(rel_tol=1e-12, max_terms=100, consecutive_small=0)
    assert DEFAULT_CONTROL.rel_tol == 1e-12
