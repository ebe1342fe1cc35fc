"""Quadrature, KS distance and CDF differentiation helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_telegraph.errors import ConvergenceError, DomainError
from elastic_telegraph.numeric import (
    QuadResult,
    cdf_derivative,
    integrate,
    ks_statistic,
    numeric_mgf,
    numeric_moment,
)

scipy_special = pytest.importorskip("scipy.special")


# ---------------------------------------------------------------------------
# finite-interval quadrature
# ---------------------------------------------------------------------------


def test_sine_over_half_period():
    res = integrate(np.sin, 0.0, math.pi, tol=1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-13)
    assert res.abs_error_estimate <= 1e-12 * 2.0 * 1.01
    assert res.evaluations % 15 == 0


def test_empty_interval_is_zero():
    res = integrate(np.exp, 3.0, 3.0)
    assert res == QuadResult(0.0, 0.0, 0, 0.0)


def test_oscillatory_with_known_value():
    # int_0^10 cos(4 t) dt = sin(40) / 4
    res = integrate(lambda t: np.cos(4.0 * t), 0.0, 10.0, tol=1e-12)
    assert res.value == pytest.approx(math.sin(40.0) / 4.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=8),
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=0.25, max_value=3.0),
)
def test_polynomials_match_antiderivative(coeffs, a, width):
    b = a + width
    c = np.asarray(coeffs)
    # antiderivative coefficients c_k x^{k+1} / (k+1)
    anti = c / np.arange(1.0, c.size + 1.0)
    exact = float(np.polyval(anti[::-1], b) * b - np.polyval(anti[::-1], a) * a)
    res = integrate(lambda x: np.polyval(c[::-1], x), a, b, tol=1e-12)
    assert res.value == pytest.approx(exact, rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# semi-infinite quadrature
# ---------------------------------------------------------------------------


def test_unit_exponential_mass():
    res = integrate(lambda t: np.exp(-t), 0.0, np.inf, tol=1e-11)
    assert res.value == pytest.approx(1.0, rel=1e-10)
    assert res.tail_bound > 0.0


def test_gamma_five_moment():
    # int_0^inf t^4 e^{-t} dt = 4! = 24
    got = numeric_moment(lambda y: np.exp(-y), 4)
    assert got == pytest.approx(24.0, rel=1e-9)


def test_cubic_exponential_moment():
    assert numeric_moment(lambda y: np.exp(-y), 3) == pytest.approx(6.0, rel=1e-9)


def test_laplace_transform_of_bessel_i1():
    # int_0^inf e^{-p t} I_1(t) dt = (p - sqrt(p^2 - 1)) / sqrt(p^2 - 1),
    # which is 2/3 at p = 5/4 (DLMF 10.32 / standard tables)
    res = integrate(lambda t: np.exp(-0.25 * t) * scipy_special.i1e(t), 0.0, np.inf, tol=1e-11)
    assert res.value == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_algebraic_tail_still_converges():
    # windows only halve here, exercising the geometric tail estimate
    res = integrate(lambda t: 1.0 / (1.0 + t) ** 2, 0.0, np.inf, tol=1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_numeric_mgf_of_exponential():
    got = numeric_mgf(lambda y: np.exp(-y), 0.25)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_shifted_lower_limit():
    res = integrate(lambda t: np.exp(-t), 2.0, np.inf, tol=1e-11)
    assert res.value == pytest.approx(math.exp(-2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_hand_case():
    # D+ = max(i/n - F) over [0.1, 0.2, 0.9] with the identity CDF is
    # 2/3 - 0.2 = 7/15 and dominates D-
    d = ks_statistic([0.9, 0.1, 0.2], lambda x: np.asarray(x, float))
    assert d == pytest.approx(7.0 / 15.0, abs=1e-15)


def test_ks_scalar_cdf_callable():
    # a callable that collapses any input to one scalar forces the
    # per-point fallback loop
    d = ks_statistic([0.25], lambda x: 0.5)
    assert d == pytest.approx(0.5, abs=1e-15)


def test_ks_perfect_fit_shrinks_with_n():
    # the plug-in CDF of the sample itself gives D = 1/n
    xs = np.linspace(0.05, 0.95, 10)
    d = ks_statistic(xs, lambda x: np.searchsorted(xs, x, side="right") / 10.0)
    assert d == pytest.approx(0.1, abs=1e-15)


def test_ks_null_calibration():
    # samples drawn from the hypothesized law itself stay below the
    # 1 percent Kolmogorov critical value
    u = np.random.default_rng(10).uniform(size=5000)
    d = ks_statistic(u, lambda x: np.asarray(x, float))
    assert d < 1.63 / math.sqrt(u.size)


def test_ks_rejects_empty_sample():
    with pytest.raises(DomainError):
        ks_statistic([], lambda x: x)


# ---------------------------------------------------------------------------
# CDF differentiation
# ---------------------------------------------------------------------------


def test_density_from_exponential_cdf():
    got = cdf_derivative(lambda x: 1.0 - math.exp(-x), 1.0)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_quadratic_cdf_near_upper_bound():
    # stencil must shrink to stay inside (0, 1); central differences are
    # exact on quadratics regardless of the step
    got = cdf_derivative(lambda x: x * x, 0.999, lo=0.0, hi=1.0)
    assert got == pytest.approx(2.0 * 0.999, rel=1e-9)


def test_derivative_needs_room_inside_bounds():
    with pytest.raises(DomainError):
        cdf_derivative(lambda x: x, 0.0, lo=0.0, hi=1.0)


def test_derivative_of_array_is_one_call_per_stencil_offset():
    calls = []

    def cdf(x):
        calls.append(np.shape(x))
        return 1.0 - np.exp(-x)

    xs = np.array([0.2, 1.0, 3.5])
    got = cdf_derivative(cdf, xs, lo=0.0)
    assert calls == [(3,)] * 4
    want = [cdf_derivative(lambda v: 1.0 - math.exp(-v), float(v), lo=0.0) for v in xs]
    np.testing.assert_array_equal(got, want)
    with pytest.raises(DomainError):
        cdf_derivative(cdf, np.array([0.5, 1.0]), lo=0.0, hi=1.0)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_rejects_bad_limits_and_tol():
    with pytest.raises(DomainError):
        integrate(np.exp, np.inf, 1.0)
    with pytest.raises(DomainError):
        integrate(np.exp, 0.0, -np.inf)
    with pytest.raises(DomainError):
        integrate(np.exp, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(np.exp, 0.0, 1.0, tol=0.0)


def test_moment_order_must_be_nonnegative_integer():
    with pytest.raises(DomainError):
        numeric_moment(lambda y: np.exp(-y), -1)
    with pytest.raises(DomainError):
        numeric_moment(lambda y: np.exp(-y), 1.5)


def test_integrand_must_vectorize():
    with pytest.raises(DomainError):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_singularity_exhausts_panel_budget():
    with pytest.raises(ConvergenceError) as exc:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-12, max_panels=8)
    assert exc.value.terms_used >= 15
