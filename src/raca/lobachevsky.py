"""Evaluation of the Lobachevsky function and derived constants.

The Lobachevsky function

    L(theta) = -integral_0^theta log|2 sin t| dt

is odd and pi-periodic, and underlies every closed-form volume in this
package.  Two independent evaluators are provided: a series route (canonical)
and an adaptive-quadrature route with the logarithmic singularity removed
analytically.  Both return a value together with a rigorous absolute error
bound; the two routes are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import zeta

from .errors import DomainError

# L(theta) = theta - theta*log(2*theta) + sum_{n>=1} zeta(2n)/(n(2n+1)) *
# theta * (theta/pi)^(2n) on (0, pi/2].  Successive term ratio is below
# (theta/pi)^2 <= 1/4, so 40 coefficients cover float64 exhaustively.
_NCOEF = 40
_COEF = tuple(float(zeta(2 * n)) / (n * (2 * n + 1)) for n in range(1, _NCOEF + 1))

# allowance for argument reduction and summation rounding
_ROUNDING = 2e-14


def _scaled_pi(bits: int) -> int:
    """floor(pi * 2**bits), from Machin's formula in integer arithmetic."""
    guard = 64
    one = 1 << (bits + guard)

    def arctan_inv(x):  # arctan(1/x) * 2**(bits + guard), truncated termwise
        total = term = one // x
        k = 1
        while term:
            term //= -x * x
            total += term // (2 * k + 1)
            k += 1
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> guard


# _reduce removes k*pi with |k| <= |theta|/pi < 2**1023 using pi rounded down
# to this many bits, so the reduced angle is off by less than 2**-177.
_PI_BITS = 1200
_PI_SCALED = _scaled_pi(_PI_BITS)


@dataclass(frozen=True)
class EvaluationResult:
    value: float
    abs_error_bound: float


def _reduce(theta: float) -> tuple[float, float]:
    """Fold theta into [0, pi/2] using oddness and pi-periodicity.

    Returns (sign, reduced) with L(theta) = sign * L(reduced).  Beyond pi/2
    the nearest multiple of pi is removed in exact integer arithmetic, so
    the reduced angle is correct to float rounding however large theta is.
    """
    if not math.isfinite(theta):
        raise DomainError("lobachevsky: argument must be finite")
    if abs(theta) <= math.pi / 2:
        r = float(theta)
    else:
        p, q = theta.as_integer_ratio()
        scaled = p << _PI_BITS        # theta * q * 2**_PI_BITS, exactly
        period = q * _PI_SCALED       # pi * q * 2**_PI_BITS, rounded down
        k = (2 * scaled + period) // (2 * period)  # nearest integer to theta/pi
        r = (scaled - k * period) / (q << _PI_BITS)
    if r < 0.0:
        return -1.0, -r
    return 1.0, r


def lobachevsky_series(theta: float) -> EvaluationResult:
    """Canonical evaluator: closed-form singular part plus zeta series."""
    sign, a = _reduce(theta)
    if a == 0.0:
        return EvaluationResult(0.0, 0.0)
    u = (a / math.pi) ** 2
    acc = 0.0
    un = 1.0
    term = 0.0
    for c in _COEF:
        un *= u
        term = c * un * a
        acc += term
        if term < 1e-18:
            break
    tail = term * u / (1.0 - u)
    value = a - a * math.log(2.0 * a) + acc
    return EvaluationResult(sign * value, tail + _ROUNDING)


def lobachevsky_quadrature(theta: float) -> EvaluationResult:
    """Independent evaluator: integrate the regular part of the integrand.

    Writing -log|2 sin t| = -log(2t) - log(sin t / t) on (0, pi/2] gives

        L(a) = a - a*log(2a) - integral_0^a log(sin t / t) dt

    where the remaining integrand is analytic at 0.
    """
    sign, a = _reduce(theta)
    if a == 0.0:
        return EvaluationResult(0.0, 0.0)

    def regular(t: float) -> float:
        if t < 1e-8:
            return -t * t / 6.0  # next term is t^4/180, below float64 noise
        return math.log(math.sin(t) / t)

    integral, abserr = quad(regular, 0.0, a, epsabs=1e-14, epsrel=1e-13, limit=200)
    value = a - a * math.log(2.0 * a) - integral
    return EvaluationResult(sign * value, abserr + _ROUNDING)


def lobachevsky(theta: float) -> EvaluationResult:
    return lobachevsky_series(theta)


def catalan_constant() -> EvaluationResult:
    """Catalan's constant G = sum (-1)^n / (2n+1)^2.

    The alternating series is accelerated with the Cohen-Rodriguez
    Villegas-Zagier scheme; for totally monotone coefficients such as
    1/(2n+1)^2 the error after n steps is below (3+sqrt(8))^-n, so 36 steps
    leave the truncation far under the rounding floor.
    """
    n = 36
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c / ((2 * k + 1) ** 2)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return EvaluationResult(s / d, _ROUNDING)


def v_oct() -> EvaluationResult:
    """Volume of the regular ideal octahedron, 8 L(pi/4)."""
    r = lobachevsky(math.pi / 4.0)
    return EvaluationResult(8.0 * r.value, 8.0 * r.abs_error_bound)


def v_tet() -> EvaluationResult:
    """Volume of the regular ideal tetrahedron, 3 L(pi/3)."""
    r = lobachevsky(math.pi / 3.0)
    return EvaluationResult(3.0 * r.value, 3.0 * r.abs_error_bound)
