"""Quaternion algebra and the conjugation of i to a unit imaginary quaternion.

Conventions: i = jk (so ij = k, jk = i, ki = j) and i^2 = j^2 = k^2 = -1.
The complex numbers sit inside H as the real span of {1, i}, and every
quaternion splits as q = z1 + j z2 with z1, z2 complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .proj4 import DEFAULT_TOL


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
    def from_complex(c: complex) -> "Quaternion":
        c = complex(c)
        return Quaternion(c.real, c.imag, 0.0, 0.0)

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

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conjugate() * (1.0 / n2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize zero quaternion")
        return self * (1.0 / n)

    def real_part(self) -> float:
        return self.w

    def imag_norm(self) -> float:
        return math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.norm() < tol

    def isclose(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).norm() < tol * max(1.0, self.norm(), other.norm())


def is_imaginary_unit(v: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """True iff v is a unit imaginary quaternion, equivalently v^2 = -1."""
    return abs(v.w) < tol and abs(v.norm() - 1.0) < tol


def conjugator_to(n: Quaternion) -> Quaternion:
    """Return lam with lam * i * lam^-1 = n, for n a unit imaginary quaternion.

    Uses lam = 1 - n*i away from the branch point n = -i, where lam = j.
    """
    if not is_imaginary_unit(n, 1e-6):
        raise ValueError("conjugator_to requires a unit imaginary quaternion")
    if (n + Quaternion.i()).norm() < 1e-8:
        return Quaternion.j()
    return (Quaternion.one() - n * Quaternion.i()).normalized()

