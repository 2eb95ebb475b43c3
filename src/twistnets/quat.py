"""Quaternion algebra.

Conventions: i = jk (so ij = k, jk = i, ki = j) and i^2 = j^2 = k^2 = -1.
The complex numbers sit inside H as the real span of {1, i}, and every
quaternion splits as q = z1 + j z2 with z1, z2 complex.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .proj4 import DEFAULT_TOL

# A sum of squares under the smallest normal float has lost bits to underflow,
# and one at inf all of them.  There norm and imag_norm take math.hypot, which
# scales by a power of two itself, and inverse and normalized work on _scaled;
# inside the range they keep the plain formulas and their bits.
_NORMAL_MIN = sys.float_info.min


def _in_range(sum_sq: float) -> bool:
    return _NORMAL_MIN <= sum_sq < math.inf


@dataclass(frozen=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def i() -> "Quaternion":
        return Quaternion(0.0, 1.0, 0.0, 0.0)

    @staticmethod
    def j() -> "Quaternion":
        return Quaternion(0.0, 0.0, 1.0, 0.0)

    @staticmethod
    def k() -> "Quaternion":
        return Quaternion(0.0, 0.0, 0.0, 1.0)

    @staticmethod
    def from_real(t: float) -> "Quaternion":
        return Quaternion(float(t), 0.0, 0.0, 0.0)

    @staticmethod
    def from_complex_pair(z1: complex, z2: complex) -> "Quaternion":
        """Build q = z1 + j z2.  Note j z2 = y j + z k with z2 = y - i z."""
        z1, z2 = complex(z1), complex(z2)
        return Quaternion(z1.real, z1.imag, z2.real, -z2.imag)

    def complex_pair(self) -> tuple[complex, complex]:
        """Split q = z1 + j z2 into (z1, z2)."""
        return complex(self.w, self.x), complex(self.y, -self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        n2 = self.norm_sq()
        return math.sqrt(n2) if _in_range(n2) else math.hypot(self.w, self.x, self.y, self.z)

    def _scaled(self) -> tuple["Quaternion", int]:
        """(q, e) with self = q 2^e and q's largest component in [0.5, 1), so
        that q's squares neither underflow nor overflow; exact for every
        component that stays a normal float.  A zero or non-finite self is
        its own q, with e = 0."""
        parts = (self.w, self.x, self.y, self.z)
        top = max(map(abs, parts))
        e = math.frexp(top)[1] if 0.0 < top < math.inf else 0
        return Quaternion(*(math.ldexp(c, -e) for c in parts)), e

    def inverse(self) -> "Quaternion":
        """conj(self) / |self|^2; raises ZeroDivisionError for zero, and
        OverflowError where the inverse leaves the float range."""
        n2 = self.norm_sq()
        if _in_range(n2):
            return self.conjugate() * (1.0 / n2)
        q, e = self._scaled()
        n2 = q.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        inv = q.conjugate() * (1.0 / n2)
        return Quaternion(*(math.ldexp(c, -e) for c in (inv.w, inv.x, inv.y, inv.z)))

    def normalized(self) -> "Quaternion":
        q = self if _in_range(self.norm_sq()) else self._scaled()[0]
        n = q.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize zero quaternion")
        return q * (1.0 / n)

    def real_part(self) -> float:
        return self.w

    def imag_norm(self) -> float:
        x, y, z = self.x, self.y, self.z
        if _in_range(x * x + y * y + z * z):
            return math.sqrt(x ** 2 + y ** 2 + z ** 2)
        return math.hypot(x, y, z)

    def isclose(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).norm() < tol * max(1.0, self.norm(), other.norm())
