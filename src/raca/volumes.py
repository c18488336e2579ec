"""Closed-form volumes of right-angled hyperbolic polyhedra and volume bounds.

Covers the Kellerhals orthoscheme formula, the Loebell and antiprism
families, the named polyhedra appearing in the minimal-covolume census, and
Atkinson-style lower/upper bounds parameterized by vertex counts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DomainError
from .lobachevsky import _price, catalan_constant, v_oct, v_tet

_EPS = 1e-12
_N_CAP = 10**6  # conditioning cap for family formulas
_COUNT_CAP = 2**53  # vertex counts in bounds stay exact, and finite, as floats


@dataclass(frozen=True)
class VolumeReport:
    """A volume, the formula that gave it and a bound on its absolute error."""

    value: float
    formula: str
    abs_error_bound: float


@dataclass(frozen=True)
class BoundPair:
    """Lower and upper volume bounds, and whether the lower one is attained."""

    lower: float
    upper: float
    lower_attained: bool = False


def _check_family_n(n, floor: int, what: str) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{what}: n must be an integer")
    if n < floor:
        raise DomainError(f"{what}: requires n >= {floor}, got {n}")
    if n > _N_CAP:
        raise DomainError(f"{what}: n exceeds supported range ({_N_CAP})")
    return n


def orthoscheme_delta(alpha: float, beta: float, gamma: float) -> float:
    """Auxiliary angle delta of the orthoscheme R(alpha, beta, gamma).

    delta = arctan( sqrt(cos^2 beta - sin^2 alpha sin^2 gamma)
                    / (cos alpha cos gamma) ),  0 <= delta < pi/2.

    Raises DomainError when the radicand is negative (the angles do not
    describe a hyperbolic orthoscheme).
    """
    for name, x in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(x) or not (0.0 < x <= math.pi / 2 + _EPS):
            raise DomainError(f"orthoscheme: {name} must lie in (0, pi/2]")
    if alpha + beta < math.pi / 2 - _EPS or beta + gamma < math.pi / 2 - _EPS:
        raise DomainError("orthoscheme: needs alpha+beta >= pi/2 and beta+gamma >= pi/2")
    denom = math.cos(alpha) * math.cos(gamma)
    if denom < _EPS:
        # alpha or gamma at pi/2 forces radicand <= 0 as well; the defining
        # quotient is 0/0 and the tetrahedron is degenerate
        raise DomainError("orthoscheme: alpha and gamma must be strictly below pi/2")
    radicand = math.cos(beta) ** 2 - (math.sin(alpha) * math.sin(gamma)) ** 2
    if radicand < -_EPS:
        raise DomainError("orthoscheme: not a hyperbolic orthoscheme (negative radicand)")
    return math.atan(math.sqrt(max(radicand, 0.0)) / denom)


def orthoscheme_volume(alpha: float, beta: float, gamma: float) -> VolumeReport:
    """Volume of the birectangular tetrahedron R(alpha, beta, gamma).

    Kellerhals' formula:

        vol = 1/4 [ L(alpha+delta) - L(alpha-delta)
                  + L(gamma+delta) - L(gamma-delta)
                  - L(pi/2 - beta + delta) + L(pi/2 - beta - delta)
                  + 2 L(pi/2 - delta) ]
    """
    delta = orthoscheme_delta(alpha, beta, gamma)
    half_pi = math.pi / 2
    r = _price(((1.0, alpha + delta), (-1.0, alpha - delta),
                (1.0, gamma + delta), (-1.0, gamma - delta),
                (-1.0, half_pi - beta + delta), (1.0, half_pi - beta - delta),
                (2.0, half_pi - delta)), 0.25)
    # the formula is nonnegative on its domain; rounding may dip just below 0
    return VolumeReport(max(r.value, 0.0), "kellerhals(alpha,beta,gamma)", r.abs_error_bound)


def lobell_volume(n) -> VolumeReport:
    """Volume of the Loebell polyhedron L_n (compact, two n-gonal bases).

    vol(L_n) = n/2 (2 L(theta) + L(theta + pi/n) + L(theta - pi/n)
                    - L(2 theta - pi/2)),
    theta = pi/2 - arccos(1/(2 cos(pi/n))).  L_5 is the right-angled
    dodecahedron.
    """
    n = _check_family_n(n, 5, "lobell_volume")
    theta = math.pi / 2 - math.acos(1.0 / (2.0 * math.cos(math.pi / n)))
    return _report(_price(((2.0, theta), (1.0, theta + math.pi / n), (1.0, theta - math.pi / n),
                           (-1.0, 2.0 * theta - math.pi / 2)), n / 2.0), "lobell(n)")


def antiprism_volume(n) -> VolumeReport:
    """Volume of the ideal right-angled antiprism A_n.

    vol(A_n) = 2n [ L(pi/4 + pi/2n) + L(pi/4 - pi/2n) ];  A_3 is the regular
    ideal octahedron.
    """
    n = _check_family_n(n, 3, "antiprism_volume")
    return _report(_price(((1.0, math.pi / 4 + math.pi / (2 * n)),
                           (1.0, math.pi / 4 - math.pi / (2 * n))), 2.0 * n), "antiprism(n)")


def _report(r, formula, scale=1.0):
    """The price r, value and error bound times `scale`, under `formula`."""
    return VolumeReport(scale * r.value, formula, scale * r.abs_error_bound)


_PARAM_NAME = re.compile(r"^(Lobell|Antiprism)\((\d+)\)$")


def named_volume(name: str) -> VolumeReport:
    """Volume of a named polyhedron.

    Accepted names: P32, P28, P34, Delta344, Delta444, DeltaPrime344,
    Lobell(n), Antiprism(n).
    """
    if name == "P32":
        return _report(_price(((1.0, math.pi / 4),), 2.0), "2*L(pi/4)")
    if name == "P28":
        return _report(_price(((1.0, math.pi / 4),), 4.0), "4*L(pi/4)")
    if name == "P34":
        return _report(antiprism_volume(4), "antiprism(4)/4", 0.25)
    if name == "Delta344":
        return _report(orthoscheme_volume(math.pi / 3, math.pi / 4, math.pi / 4),
                       "kellerhals(pi/3,pi/4,pi/4)")
    if name == "Delta444":
        return _report(orthoscheme_volume(math.pi / 4, math.pi / 4, math.pi / 4),
                       "kellerhals(pi/4,pi/4,pi/4)")
    if name == "DeltaPrime344":
        return _report(orthoscheme_volume(math.pi / 3, math.pi / 4, math.pi / 4),
                       "6*kellerhals(pi/3,pi/4,pi/4)", 6.0)
    m = _PARAM_NAME.match(name)
    if m:
        fn = lobell_volume if m.group(1) == "Lobell" else antiprism_volume
        try:
            n = int(m.group(2))
        except ValueError:  # more digits than int() accepts from a string
            raise DomainError(
                f"named_volume: n exceeds supported range ({_N_CAP})") from None
        return fn(n)
    raise DomainError(f"named_volume: unknown name {name!r}")


def atkinson_bounds_compact(V) -> BoundPair:
    """Volume bounds for a compact right-angled polyhedron with V vertices.

    v_oct/32 (V-8) <= vol < 5 v_tet/8 (V-10), valid for even V >= 20.
    """
    if isinstance(V, bool) or not isinstance(V, int):
        raise DomainError("atkinson_bounds_compact: V must be an integer")
    if V < 20:
        raise DomainError("atkinson_bounds_compact: requires V >= 20")
    if V % 2 != 0:
        raise DomainError("atkinson_bounds_compact: V must be even")
    if V > _COUNT_CAP:
        raise DomainError("atkinson_bounds_compact: V exceeds supported range (2**53)")
    lower = v_oct().value / 32.0 * (V - 8)
    upper = 5.0 * v_tet().value / 8.0 * (V - 10)
    return BoundPair(lower, upper, lower_attained=False)


def atkinson_bounds_ideal(V) -> BoundPair:
    """Volume bounds for an ideal right-angled polyhedron with V vertices.

    v_oct/4 (V-2) <= vol < v_oct/2 (V-4), valid for V >= 6; both bounds are
    attained exactly by the regular ideal octahedron (V = 6).
    """
    if isinstance(V, bool) or not isinstance(V, int):
        raise DomainError("atkinson_bounds_ideal: V must be an integer")
    if V < 6:
        raise DomainError("atkinson_bounds_ideal: requires V >= 6")
    if V > _COUNT_CAP:
        raise DomainError("atkinson_bounds_ideal: V exceeds supported range (2**53)")
    vo = v_oct().value
    return BoundPair(vo / 4.0 * (V - 2), vo / 2.0 * (V - 4), lower_attained=(V == 6))


def _check_mixed_args(v_inf, v_f) -> None:
    for name, x in (("V_inf", v_inf), ("V_f", v_f)):
        if isinstance(x, bool) or not isinstance(x, int):
            raise DomainError(f"mixed bounds: {name} must be an integer")
    if v_inf < 1:
        raise DomainError("mixed bounds: requires V_inf >= 1")
    if v_f < 0 or v_f % 2 != 0:
        raise DomainError("mixed bounds: requires V_f >= 0 and even")
    if max(v_inf, v_f) > _COUNT_CAP:
        raise DomainError("mixed bounds: vertex counts exceed supported range (2**53)")


def mixed_lower_bound(v_inf, v_f) -> float:
    """Lower volume bound G/8 (4 V_inf + V_f - 8) for mixed vertex counts."""
    _check_mixed_args(v_inf, v_f)
    return catalan_constant().value / 8.0 * (4 * v_inf + v_f - 8)


def mixed_bounds(v_inf, v_f) -> BoundPair:
    """Mixed-count lower bound paired with the matching upper bound.

    upper = v_oct/2 V_inf + 5 v_tet/8 V_f - v_oct/2.
    """
    _check_mixed_args(v_inf, v_f)
    lower = mixed_lower_bound(v_inf, v_f)
    upper = v_oct().value / 2.0 * v_inf + 5.0 * v_tet().value / 8.0 * v_f - v_oct().value / 2.0
    return BoundPair(lower, upper, lower_attained=False)
