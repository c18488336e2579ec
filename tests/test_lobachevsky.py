"""Lobachevsky function: reference values, functional equations, error bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raca.lobachevsky import (
    _COEF,
    _GAUSS,
    _PI_BITS,
    _PI_SCALED,
    _ROUNDING,
    _reduce,
    _rounding_budget,
    catalan_constant,
    lobachevsky,
    lobachevsky_quadrature,
    lobachevsky_series,
    v_oct,
    v_tet,
)

# 20-digit reference values computed independently at high precision
LAMBDA_PI_4 = 0.45798279708860950753
LAMBDA_PI_3 = 0.33831386880321787501
LAMBDA_PI_6 = 0.50747080320482681251
CATALAN = 0.91596559417721901505
V_OCT = 3.6638623767088760602
V_TET = 1.0149416064096536250


def test_reference_values():
    assert lobachevsky(math.pi / 4).value == pytest.approx(LAMBDA_PI_4, abs=1e-13)
    assert lobachevsky(math.pi / 3).value == pytest.approx(LAMBDA_PI_3, abs=1e-13)
    assert lobachevsky(math.pi / 6).value == pytest.approx(LAMBDA_PI_6, abs=1e-13)
    assert catalan_constant().value == pytest.approx(CATALAN, abs=1e-14)
    assert v_oct().value == pytest.approx(V_OCT, abs=1e-12)
    assert v_tet().value == pytest.approx(V_TET, abs=1e-12)


def test_zeros():
    assert lobachevsky(0.0).value == 0.0
    assert abs(lobachevsky(math.pi).value) < 1e-13
    assert abs(lobachevsky(math.pi / 2).value) < 1e-13
    assert abs(lobachevsky(-math.pi / 2).value) < 1e-13


def test_catalan_is_twice_lambda_quarter_pi():
    # alternating-series route vs series evaluation of the function
    assert catalan_constant().value == pytest.approx(
        2.0 * lobachevsky_series(math.pi / 4).value, abs=1e-13)
    # and vs the quadrature route
    assert catalan_constant().value == pytest.approx(
        2.0 * lobachevsky_quadrature(math.pi / 4).value, abs=1e-12)


def test_constants_trace_back_to_lambda():
    assert v_oct().value == pytest.approx(8.0 * lobachevsky(math.pi / 4).value, abs=1e-13)
    assert v_tet().value == pytest.approx(3.0 * lobachevsky(math.pi / 3).value, abs=1e-13)


def test_oddness_grid():
    for k in range(1, 1000):
        theta = -2.0 * math.pi + 4.0 * math.pi * k / 1000.0
        assert lobachevsky(-theta).value == pytest.approx(
            -lobachevsky(theta).value, abs=1e-11)


def test_periodicity_grid():
    for k in range(1000):
        theta = -math.pi + 2.0 * math.pi * k / 1000.0
        assert lobachevsky(theta + math.pi).value == pytest.approx(
            lobachevsky(theta).value, abs=1e-11)


def test_duplication_grid():
    # L(2t) = 2L(t) + 2L(t + pi/2)
    for k in range(500):
        theta = -math.pi / 2 + math.pi * k / 500.0
        lhs = lobachevsky(2.0 * theta).value
        rhs = 2.0 * lobachevsky(theta).value + 2.0 * lobachevsky(theta + math.pi / 2).value
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_maximum_near_pi_over_six():
    step = 1e-4
    best_theta, best_val = 0.0, float("-inf")
    theta = step
    while theta < math.pi / 2:
        val = lobachevsky_series(theta).value
        if val > best_val:
            best_theta, best_val = theta, val
        theta += step
    assert abs(best_theta - math.pi / 6) <= 1e-3
    assert best_val == pytest.approx(LAMBDA_PI_6, abs=1e-8)


def test_routes_agree():
    for k in range(-100, 101):
        theta = 2.0 * math.pi * k / 100.0 + 0.0137
        s = lobachevsky_series(theta)
        q = lobachevsky_quadrature(theta)
        assert s.value == pytest.approx(q.value, abs=1e-10)


def test_error_bounds():
    for theta in (0.0, 1e-9, 0.3, math.pi / 4, math.pi / 3, 1.5, math.pi / 2, 2.9, -12.7):
        for route in (lobachevsky_series, lobachevsky_quadrature):
            result = route(theta)
            assert 0.0 <= result.abs_error_bound <= 1e-12
    assert catalan_constant().abs_error_bound <= 1e-12


def test_argument_reduction_far_from_origin():
    theta = math.pi / 5
    for k in (-7, -2, 3, 25):
        shifted = theta + k * math.pi
        assert lobachevsky(shifted).value == pytest.approx(
            lobachevsky(theta).value, abs=1e-11)


def _mpmath_lobachevsky(theta):
    """L(theta) = Cl_2(2 theta)/2, reduced mod pi at 1400 bits by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(1400):
        x = mpmath.mpf(theta)
        r = x - mpmath.nint(x / mpmath.pi) * mpmath.pi
    with mpmath.workdps(30):
        return float(mpmath.clsin(2, 2 * r) / 2)


def test_scaled_pi_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(_PI_BITS + 64):
        assert _PI_SCALED == int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** _PI_BITS))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.floats(-300.0, 300.0), st.booleans())
@example(16.0, False)
@example(300.0, True)
@example(math.log10(math.pi / 2), False)
def test_bound_holds_log_uniform(exponent, negative):
    theta = (-1.0 if negative else 1.0) * 10.0 ** exponent
    ref = _mpmath_lobachevsky(theta)
    for route in (lobachevsky_series, lobachevsky_quadrature):
        result = route(theta)
        assert abs(result.value - ref) <= result.abs_error_bound, (route.__name__, theta)


def test_small_arguments_are_not_reduced():
    for theta in (1e-300, 0.3, math.pi / 4, math.pi / 2, -math.pi / 2, -1.2):
        assert _reduce(theta) == (math.copysign(1.0, theta), abs(theta))


def test_rounding_budget_within_allowance():
    assert 0.0 < _rounding_budget() <= _ROUNDING


def _bernoulli(count):
    """B_0 .. B_count as exact fractions, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _coefficients_off_by_more_than_an_ulp(coefs):
    """Indices n - 1 whose literal is neither the correctly rounded value of
    zeta(2n)/(n(2n+1)) nor a float next to it, with zeta(2n) =
    |B_2n| (2 pi)^2n / (2 (2n)!) from exact Bernoulli numbers."""
    mpmath = pytest.importorskip("mpmath")
    b = _bernoulli(2 * len(coefs))
    bad = []
    with mpmath.workdps(60):
        for n, c in enumerate(coefs, 1):
            exact = abs(b[2 * n]) / (2 * math.factorial(2 * n) * n * (2 * n + 1))
            ref = (mpmath.mpf(exact.numerator) / exact.denominator
                   * (2 * mpmath.pi) ** (2 * n))
            nearest = float(ref)
            if c not in (math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, 1.0)):
                bad.append(n - 1)
    return bad


def test_coefficient_literals_match_exact_zeta():
    assert len(_COEF) == 40
    assert _coefficients_off_by_more_than_an_ulp(_COEF) == []
    # the check sees a literal moved by a few ulps either way
    for k, scale in ((0, 1.0 + 1e-15), (1, 1.0 + 1e-15), (1, 1.0 - 1e-15), (39, 1.0 - 1e-15)):
        mutated = list(_COEF)
        mutated[k] *= scale
        assert _coefficients_off_by_more_than_an_ulp(mutated) == [k]


def test_gauss_rule_is_correctly_rounded():
    # the rounding budget assumes each node and weight is the correctly
    # rounded root of P_16 and its weight 2 (1 - x^2) / (16 P_15(x))^2
    mpmath = pytest.importorskip("mpmath")
    n = 2 * len(_GAUSS)

    def legendre(x):  # (P_n(x), P_{n-1}(x)) by the three-term recurrence
        p0, p1 = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, p0

    with mpmath.workdps(60):
        for x, w in _GAUSS:
            r = mpmath.mpf(x)
            for _ in range(8):  # Newton from the float node
                p, q = legendre(r)
                r -= p * (1 - r * r) / (n * (q - r * p))
            p, q = legendre(r)
            assert abs(p) < mpmath.mpf(10) ** -50
            assert x == float(r)
            assert w == float(2 * (1 - r * r) / (n * q) ** 2)
        assert mpmath.fsum(2 * w for _, w in _GAUSS) == pytest.approx(2.0, abs=1e-15)
