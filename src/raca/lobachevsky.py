"""Evaluation of the Lobachevsky function and derived constants.

The Lobachevsky function

    L(theta) = -integral_0^theta log|2 sin t| dt

is odd and pi-periodic, and underlies every closed-form volume in this
package.  Two independent evaluators are provided: a series route (canonical)
and a fixed-order Gauss-Legendre route with the logarithmic singularity
removed analytically.  Both return a value together with a rigorous absolute
error bound; the two routes are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# L(theta) = theta - theta*log(2*theta) + sum_{n>=1} zeta(2n)/(n(2n+1)) *
# theta * (theta/pi)^(2n) on (0, pi/2].  Successive term ratio is below
# (theta/pi)^2 <= 1/4, so 40 coefficients cover float64 exhaustively.  Each
# literal is zeta(2n)/(n(2n+1)) correctly rounded or a float next to it: the
# six at n = 2, 3, 4, 5, 9 and 15 are one float off, and stay so that every
# value and error bound keeps the bits it had.
_COEF = tuple(map(float.fromhex, (
    "0x1.18bc4418cafe2p-1", "0x1.bb51d113fc073p-4",
    "0x1.8cdc55c932808p-5", "0x1.c8f77da9d22d4p-6",
    "0x1.2a2feb4a0ffadp-6", "0x1.a434b8db670f1p-7",
    "0x1.381865e134066p-7", "0x1.e1e3c481839c8p-8",
    "0x1.7f40bfb0e10edp-8", "0x1.381394bacd39ap-8",
    "0x1.03091f5e3dd33p-8", "0x1.b4e81d037076dp-9",
    "0x1.756cac7d73237p-9", "0x1.42d662717f6e2p-9",
    "0x1.19e011a2689bbp-9", "0x1.f07c1f09b26cep-10",
    "0x1.b89401b90226cp-10", "0x1.899c0f6031338p-10",
    "0x1.61c544c01ba37p-10", "0x1.3fb013fb027f6p-10",
    "0x1.224dadc900912p-10", "0x1.08cabb37566ebp-10",
    "0x1.e500b5e0443bbp-11", "0x1.bdd2b89940713p-11",
    "0x1.9b34ce68019bap-11", "0x1.7c786217094a1p-11",
    "0x1.610e4ef473283p-11", "0x1.4880522014880p-11",
    "0x1.326c069552243p-11", "0x1.1e7f0550db594p-11",
    "0x1.0c73e00431cf8p-11", "0x1.f81f81f81f820p-12",
    "0x1.da41122d9e826p-12", "0x1.bef69d92710cep-12",
    "0x1.a5f650f8e449cp-12", "0x1.8f0063c018f00p-12",
    "0x1.79dd7f667e044p-12", "0x1.665d70dd2dabbp-12",
    "0x1.545614c5c1049p-12", "0x1.43a2730abee4dp-12",
)))

# 16-point Gauss-Legendre rule on [-1, 1]: the positive nodes x and their
# weights w (the node -x has the same weight), each correctly rounded
_GAUSS = (
    (0.9894009349916499, 0.027152459411754096),
    (0.9445750230732326, 0.062253523938647894),
    (0.8656312023878318, 0.09515851168249279),
    (0.755404408355003, 0.12462897125553388),
    (0.6178762444026438, 0.14959598881657674),
    (0.45801677765722737, 0.16915651939500254),
    (0.2816035507792589, 0.18260341504492358),
    (0.09501250983763744, 0.1894506104550685),
)

# Bernstein-ellipse bound on the rule's error for the integral of
# log(sin t / t) over [0, a], divided by a/2; see lobachevsky_quadrature
_RHO = 2.0 + math.sqrt(3.0)
_GAUSS_M = -math.log(math.sin(0.75 * math.pi) / (0.75 * math.pi))
_GAUSS_TRUNCATION = (64.0 * _GAUSS_M / (15.0 * (_RHO ** 2 - 1.0))
                     * _RHO ** (-2 * (2 * len(_GAUSS) - 1)))

# allowance for the float rounding of either route; it covers
# _rounding_budget() (about 3e-15) several times over
_ROUNDING = 2e-14


def _rounding_budget() -> float:
    """Bound on the rounding error of either route, for any finite theta.

    u = 2**-53 is the unit roundoff, and libm's sin and log are taken to be
    faithful (relative error below 2u).  On the reduced angle a in (0, A],
    A = pi/2, the sizes that enter are
      X = A log(2A) >= |a log(2a)|,        Y = 1/2 >= |a - a log(2a)|,
      Z = A log 2 >= |a log(2 sin a)| = |a L'(a)|,
      G = log(A) >= |g(t)|,  D = 2/pi >= |g'(t)|,  g(t) = log(sin t / t),
      S = A sum_n c_n 4**-n >= the series sum, c_n = _COEF[n - 1].
    Both routes:
      reduction: beyond pi/2 the reduced angle is one correctly rounded
        quotient of exact integers (relative error u; truncating pi adds
        under 2**-177), which moves L by at most Z u;
      assembly of a - a log(2a) +- sum: the log and the product 3X u, the
        difference Y u, the last sum or difference (Y + |sum|) u.
    Series: (a/pi)**2 carries 5u relative (fl(pi), quotient, square), and
      the n-th term (6n + 4)u (the power, a coefficient at most one float
      from the correctly rounded value, two products); each of the at most
      40 partial sums is below S.
    Gauss-Legendre, with h = a/2 <= H = pi/4 and nodes and weights
      correctly rounded (u/2 relative):
      node: t = h(1 -+ x) is off by 3.5 h u (x, the sum, the product),
        which moves g by 3.5 D H u at each of 16 nodes of total weight 2;
      evaluation: sin, the quotient and log leave g off by (3 + 2G) u;
      weights: off by u in total, against |g| <= G;
      summation: each pair w (g(t-) + g(t+)) is off by 4 G w u, with the
        pair weights summing to 1, and the running sum of 8 pairs by
        16 G u; the product by h adds 2 G H u;
      the last sum is |integral| <= A G.
    The terms are first order in u, so the total is scaled by 1.01, which
    also covers the rounding of the reported tail and truncation terms
    (below 1e-30), the rounding of h when a is subnormal and the
    small-t branch of g (off by t**4/180 < 1e-33).
    """
    u = 2.0 ** -53
    big_a, big_h = math.pi / 2.0, math.pi / 4.0
    x_max, y_max, z_max = big_a * math.log(2.0 * big_a), 0.5, big_a * math.log(2.0)
    g_max, dg_max = math.log(big_a), 2.0 / math.pi
    s_max = big_a * sum(c * 0.25 ** n for n, c in enumerate(_COEF, 1))
    terms = sum((6 * n + 4) * c * big_a * 0.25 ** n for n, c in enumerate(_COEF, 1))
    series = (z_max + terms + len(_COEF) * s_max
              + 3.0 * x_max + y_max + (y_max + s_max))
    gauss = (z_max
             + big_h * 2.0 * 3.5 * dg_max * big_h
             + big_h * 2.0 * (3.0 + 2.0 * g_max)
             + big_h * g_max
             + big_h * (4.0 + 2.0 * len(_GAUSS)) * g_max + 2.0 * g_max * big_h
             + 3.0 * x_max + y_max + (y_max + big_a * g_max))
    return 1.01 * u * max(series, gauss)


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
    """A computed value with a bound on its absolute error."""

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
    """Independent evaluator: Gauss-Legendre on the regular part of the integrand.

    Writing -log|2 sin t| = -log(2t) - log(sin t / t) on (0, pi/2] gives

        L(a) = a - a*log(2a) - integral_0^a g(t) dt,  g(t) = log(sin t / t),

    and the 16-point rule gives the integral as h * sum w g(h(1 + x)) with
    h = a/2.  The truncation bound needs g on a Bernstein ellipse.  From
    sin t / t = prod_k (1 - t^2 / (k pi)^2), g is analytic on |t| < pi,
    and for |t| <= r < pi

        |g(t)| <= sum_k -log(1 - r^2 / (k pi)^2) = -log(sin r / r),

    since |log(1 - z)| <= -log(1 - |z|) for |z| < 1.  The Bernstein ellipse
    of [0, a] with rho = 2 + sqrt(3) reaches |t| <= h (1 + (rho + 1/rho)/2)
    = 3h <= 3 pi/4, so M = -log(sin(3 pi/4) / (3 pi/4)) bounds g there, and
    the (n+1)-point rule, n = 15, errs by at most

        h * 64 M / (15 (rho^2 - 1) rho^(2n))  (about 3e-18 h)

    (L. N. Trefethen, Approximation Theory and Approximation Practice,
    SIAM 2013, Thm 19.3).  No zeta value and no formula of the series route
    is used.
    """
    sign, a = _reduce(theta)
    if a == 0.0:
        return EvaluationResult(0.0, 0.0)

    def regular(t: float) -> float:
        if t < 1e-8:
            return -t * t / 6.0  # next term is t^4/180, below float64 noise
        return math.log(math.sin(t) / t)

    h = a / 2.0
    total = 0.0
    for x, w in _GAUSS:
        total += w * (regular(h * (1.0 - x)) + regular(h * (1.0 + x)))
    value = a - a * math.log(2.0 * a) - h * total
    return EvaluationResult(sign * value, h * _GAUSS_TRUNCATION + _ROUNDING)


def lobachevsky(theta: float) -> EvaluationResult:
    return lobachevsky_series(theta)


def _price(terms, scale):
    """scale * sum c L(theta) over the (c, theta) terms, with the bound
    scale * sum |c| bound(L(theta)): every closed-form price is one such sum.
    Both sums run in the terms' order and are scaled once, at the end."""
    total = bound = 0.0
    for c, theta in terms:
        r = lobachevsky(theta)
        total += c * r.value
        bound += abs(c) * r.abs_error_bound
    return EvaluationResult(scale * total, scale * bound)


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
    return _price(((1.0, math.pi / 4.0),), 8.0)


def v_tet() -> EvaluationResult:
    """Volume of the regular ideal tetrahedron, 3 L(pi/3)."""
    return _price(((1.0, math.pi / 3.0),), 3.0)
