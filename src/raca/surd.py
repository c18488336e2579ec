"""Exact arithmetic in the ring Z[sqrt(2), sqrt(3)].

Elements are stored as integer coordinates over the basis (1, sqrt(2),
sqrt(3), sqrt(6)), which is closed under multiplication.  Coefficients are
Python integers, so no precision is ever lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _as_int

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)


@dataclass(frozen=True)
class SurdInteger:
    """a + b*sqrt(2) + c*sqrt(3) + d*sqrt(6) with integer a, b, c, d."""

    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0

    def __post_init__(self):
        _as_int(self.a, "rational coefficient")
        _as_int(self.b, "sqrt(2) coefficient")
        _as_int(self.c, "sqrt(3) coefficient")
        _as_int(self.d, "sqrt(6) coefficient")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "SurdInteger") -> "SurdInteger":
        other = _coerce(other)
        return SurdInteger(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self) -> "SurdInteger":
        return SurdInteger(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "SurdInteger") -> "SurdInteger":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "SurdInteger":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "SurdInteger":
        o = _coerce(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return SurdInteger(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SurdInteger":
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise DomainError("exponent must be a nonnegative integer")
        out = SurdInteger(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self) -> bool:
        return any((self.a, self.b, self.c, self.d))

    # -- queries ------------------------------------------------------------

    @property
    def is_rational_integer(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def value(self) -> float:
        return float(self.a) + self.b * _SQRT2 + self.c * _SQRT3 + self.d * _SQRT6

    def __str__(self) -> str:
        parts = []
        for coef, unit in ((self.a, ""), (self.b, "sqrt(2)"),
                           (self.c, "sqrt(3)"), (self.d, "sqrt(6)")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if parts else "")
            mag = abs(coef)
            if unit and mag == 1:
                body = unit
            elif unit:
                body = f"{mag}*{unit}"
            else:
                body = str(mag)
            parts.append(f"{sign}{body}" if not parts else f"{sign} {body}")
        return " ".join(parts) if parts else "0"


def _coerce(x) -> SurdInteger:
    if isinstance(x, SurdInteger):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return SurdInteger(x)
    raise DomainError(f"cannot coerce {x!r} into Z[sqrt(2), sqrt(3)]")


ZERO = SurdInteger(0)
ONE = SurdInteger(1)
SQRT2 = SurdInteger(0, 1)
SQRT3 = SurdInteger(0, 0, 1)
SQRT6 = SurdInteger(0, 0, 0, 1)
