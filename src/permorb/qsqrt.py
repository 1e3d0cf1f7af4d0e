"""Exact arithmetic in the quadratic extension Q(sqrt(l)).

Quantum dimensions in this theory take the values 1, 2 and sqrt(l), so all
dimension bookkeeping lives in ``Q(sqrt(l))`` for the fixed integer ``l``.
Values are normalized so that equality is structural: when ``l`` is a
perfect square the irrational part is folded into the rational part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["QSqrt"]


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class QSqrt:
    """The exact number ``a + b*sqrt(rad)``."""

    a: Fraction
    b: Fraction
    rad: int

    def __post_init__(self):
        if self.rad < 1:
            raise ValueError("radicand must be a positive integer")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        r = _isqrt_exact(self.rad)
        if r is not None and self.b != 0:
            object.__setattr__(self, "a", self.a + self.b * r)
            object.__setattr__(self, "b", Fraction(0))

    @classmethod
    def of(cls, value, rad: int) -> "QSqrt":
        return cls(Fraction(value), Fraction(0), rad)

    @classmethod
    def sqrt_rad(cls, rad: int) -> "QSqrt":
        return cls(Fraction(0), Fraction(1), rad)

    def _coerce(self, other) -> "QSqrt":
        if isinstance(other, QSqrt):
            if other.rad != self.rad and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands")
            return other if other.rad == self.rad else QSqrt(other.a, other.b, self.rad)
        return QSqrt(Fraction(other), Fraction(0), self.rad)

    def __add__(self, other) -> "QSqrt":
        o = self._coerce(other)
        return QSqrt(self.a + o.a, self.b + o.b, self.rad)

    __radd__ = __add__

    def __mul__(self, other) -> "QSqrt":
        o = self._coerce(other)
        return QSqrt(
            self.a * o.a + self.b * o.b * self.rad,
            self.a * o.b + self.b * o.a,
            self.rad,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSqrt.of(other, self.rad)
        if not isinstance(other, QSqrt):
            return NotImplemented
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.rad if self.b else 1))

    def __ge__(self, other) -> bool:
        # sign of a + b*sqrt(rad) - other, by exact comparison of squares
        o = self._coerce(other)
        a, b = self.a - o.a, self.b - o.b
        if b == 0:
            return a >= 0
        if a == 0:
            return b >= 0
        lhs, rhs = a * a, b * b * self.rad  # compare |a| vs |b|sqrt(rad)
        if a > 0 and b > 0:
            return True
        if a < 0 and b < 0:
            return False
        if a > 0:  # b < 0: need a >= |b|sqrt(rad)
            return lhs >= rhs
        return rhs >= lhs  # a < 0, b > 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.rad})"
        bpart = root if self.b == 1 else f"{self.b}*{root}"
        if self.a == 0:
            return bpart
        return f"{self.a}+{bpart}"

    def __repr__(self) -> str:
        return f"QSqrt({self.a}, {self.b}, sqrt({self.rad}))"
