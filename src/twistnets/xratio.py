"""Cross ratios: complex (CP^1 with exact infinity), quaternionic, and the
Steiner cross ratio of four points on a conic in the Pluecker quadric.

Extended complex numbers are kept as homogeneous pairs [num : den] so that
infinity needs no special casing in the core formulas: with
d(u, v) = u_n v_d - v_n u_d the cross ratio is

    [z1, z2, z3, z4] = d(z1,z2) d(z3,z4) / (d(z2,z3) d(z4,z1)).

A regulus is the conic that the plane of three pairwise skew lines f1, f2,
f3 cuts from the Pluecker quadric Q^4.  With g_ab = <f_a, f_b> its point at
[t : s] is the closed form

    x(t : s) = g23 t(t-s) f1 - g13 (t-s)s f2 + g12 ts f3,

which puts f1, f2, f3 at infinity, 0 and 1, and the parameter of a conic
point is read back from its pairings with the generators; neither needs the
regulus's transversals, a singular value decomposition or a least-squares
fit.  The Steiner cross ratio of four conic points is the complex cross
ratio of their parameters, and steiner_fourth_point, in complex_cr's
normalization, places its three lines at infinity, 1 and 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .quat import Quaternion
from .proj4 import (
    DEFAULT_TOL,
    QUADRIC_MATRIX,
    GeometryError,
    line_factorize,
    normalize_proj,
    proj_distance,
    quadric_pair,
    wedge,
)
from .twistor import QUAT_ONE, HPoint


@dataclass(frozen=True)
class ExtC:
    """Point [num : den] of CP^1; den = 0 is the point at infinity."""

    num: complex
    den: complex

    def __post_init__(self):
        if self.num == 0 and self.den == 0:
            raise GeometryError("invalid homogeneous pair (0, 0)")

    def is_infinity(self, tol: float = 0.0) -> bool:
        return abs(self.den) <= tol * max(1.0, abs(self.num))

    def value(self) -> complex:
        if self.is_infinity(1e-14):
            raise GeometryError("point at infinity has no finite value")
        return self.num / self.den

    def conj(self) -> "ExtC":
        return ExtC(np.conj(self.num), np.conj(self.den))

    def isclose(self, other: "ExtC", tol: float = DEFAULT_TOL) -> bool:
        d = self.num * other.den - other.num * self.den
        scale = max(abs(self.num), abs(self.den)) * max(abs(other.num), abs(other.den))
        return abs(d) < tol * max(1.0, scale)


INF = ExtC(1.0, 0.0)


def as_ext(z) -> ExtC:
    if isinstance(z, ExtC):
        return z
    if isinstance(z, (int, float, complex)):
        if isinstance(z, float) and np.isinf(z):
            return INF
        return ExtC(complex(z), 1.0)
    raise TypeError(f"cannot interpret {z!r} as an extended complex number")


def cross_det(u: ExtC, v: ExtC) -> complex:
    """d(u, v) = u_n v_d - v_n u_d, zero iff u and v are the same point."""
    return u.num * v.den - v.num * u.den


def complex_cr(z1, z2, z3, z4) -> ExtC:
    """Cross ratio of four points of CP^1, normalized so [inf,1,0,lam] = lam."""
    zs = [as_ext(z) for z in (z1, z2, z3, z4)]
    for a, b in itertools.combinations(range(4), 2):
        if zs[a].isclose(zs[b]):
            raise GeometryError(f"coincident points {a} and {b} in cross ratio")
    num = cross_det(zs[0], zs[1]) * cross_det(zs[2], zs[3])
    den = cross_det(zs[1], zs[2]) * cross_det(zs[3], zs[0])
    return ExtC(num, den)


def complex_fourth_point(z1, z2, z3, lam) -> ExtC:
    """The unique w with complex_cr(z1, z2, z3, w) = lam."""
    z1, z2, z3, lam = as_ext(z1), as_ext(z2), as_ext(z3), as_ext(lam)
    if lam.is_infinity(1e-14):
        raise GeometryError("degenerate cross-ratio value infinity")
    lv = lam.value()
    if abs(lv) < DEFAULT_TOL or abs(lv - 1.0) < DEFAULT_TOL:
        raise GeometryError("degenerate cross-ratio value 0 or 1")
    a, b = cross_det(z1, z2), cross_det(z2, z3)
    num = a * z3.num + lv * b * z1.num
    den = a * z3.den + lv * b * z1.den
    # keep homogeneous pairs at unit scale so chained evaluations stay finite
    s = max(abs(num), abs(den))
    if s == 0.0:
        raise GeometryError("degenerate fourth point")
    return ExtC(num / s, den / s)


# ---------------------------------------------------------------------------
# quaternionic cross ratio


def quat_cr(p1: HPoint, p2: HPoint, p3: HPoint, p4: HPoint) -> Quaternion:
    """(q1-q2)(q2-q3)^-1 (q3-q4)(q4-q1)^-1 in the affine chart [q : 1].

    At most one input may be the point at infinity; the two factors involving
    it cancel in the limit, which is what the closed forms below encode.
    """
    pts = [p1, p2, p3, p4]
    inf_idx = [k for k, p in enumerate(pts) if p.is_infinity()]
    if len(inf_idx) > 1:
        raise GeometryError("more than one point at infinity")
    if not inf_idx:
        q1, q2, q3, q4 = (p.affine() for p in pts)
        return ((q1 - q2) * (q2 - q3).inverse()
                * (q3 - q4) * (q4 - q1).inverse())
    k = inf_idx[0]
    a, b, c = [p.affine() for i, p in enumerate(pts) if i != k]
    if k == 0:    # [inf, q2, q3, q4] = (q2-q3)^-1 (q3-q4)
        return (a - b).inverse() * (b - c)
    if k == 1:    # [q1, inf, q3, q4] = -(q3-q4)(q4-q1)^-1
        return -(b - c) * (c - a).inverse()
    if k == 2:    # [q1, q2, inf, q4] = -(q1-q2)(q4-q1)^-1
        return -(a - b) * (c - a).inverse()
    # k == 3: [q1, q2, q3, inf] = -(q1-q2)(q2-q3)^-1
    return -(a - b) * (b - c).inverse()


def quat_fourth_point(p1: HPoint, p2: HPoint, p3: HPoint, lam: Quaternion) -> HPoint:
    """The unique p4 with quat_cr(p1, p2, p3, p4) = lam: the batch of one of
    quat_fourth_points."""
    at_inf = [p.is_infinity() for p in (p1, p2, p3)]
    q = [Quaternion.one() if inf else p.affine() for p, inf in zip((p1, p2, p3), at_inf)]
    out, out_inf = quat_fourth_points(*([x.w, x.x, x.y, x.z] for x in (*q, lam)), at_inf)
    if out_inf[0]:
        return HPoint.infinity()
    return HPoint.from_quaternion(Quaternion(*out[0].tolist()))


def quat_fourth_points(q1, q2, q3, lam, at_inf) -> tuple[np.ndarray, np.ndarray]:
    """quat_fourth_point row by row, on affine coordinates.

    Row k of the (k, 4) arrays q1, q2, q3 is the quaternion q of the point
    [q : 1], or is ignored where row k of the (k, 3) mask at_inf marks the
    point at infinity; lam is one quaternion or one per row.  Each row takes
    the scalar formula for its points at infinity (_FOURTH_POINT) on batches
    of Quaternions; with none, p4 is the point at infinity where 1 + B
    nearly vanishes.  Returns p4's quaternions, 1 at infinity, and the mask
    of the rows at infinity.
    """
    q1, q2, q3 = (np.reshape(np.asarray(q, dtype=float), (-1, 4)) for q in (q1, q2, q3))
    lam = np.asarray(lam, dtype=float)
    # Quaternion.is_zero of lam and of lam - 1
    if (np.minimum((lam * lam).sum(axis=-1), ((lam - QUAT_ONE) ** 2).sum(axis=-1))
            < DEFAULT_TOL ** 2).any():
        raise GeometryError("degenerate cross-ratio value 0 or 1")
    lam = np.broadcast_to(lam, q1.shape)
    at_inf = np.reshape(np.asarray(at_inf, dtype=bool), (-1, 3))
    count = at_inf.sum(axis=1)
    if count.max(initial=0) > 1:
        raise GeometryError("more than one point at infinity")
    # a batch of one runs on float components, which Python evaluates
    # faster than numpy does arrays of one element
    batch = (lambda x: Quaternion(*x[0].tolist())) if len(q1) == 1 else Quaternion.of_rows
    out = np.empty_like(q1)
    out_inf = np.zeros(len(q1), dtype=bool)
    branches = [(slice(None), _no_infinity)] if not count.any() else \
        [(rows, f) for rows, f in zip((count == 0, *at_inf.T), _FOURTH_POINT) if rows.any()]
    for rows, fourth in branches:
        p4, out_inf[rows] = fourth(*(batch(x[rows]) for x in (q1, q2, q3, lam)))
        out[rows] = p4.rows()
    out[out_inf] = QUAT_ONE
    return out, out_inf


def _no_infinity(q1, q2, q3, lam):
    """p4 = (1 + B)^-1 (q3 + B q1), B = (q2 - q3)(q1 - q2)^-1 lam, and
    whether |1 + B| < 1e-12 puts p4 at infinity."""
    try:
        bmat = (q2 - q3) * (q1 - q2).inverse() * lam
    except ZeroDivisionError:
        raise GeometryError("coincident points p1 and p2") from None
    den = Quaternion.one() + bmat
    at_inf = den.is_zero(1e-12)
    # adding 1 to den.w makes den invertible where p4 is at infinity;
    # elsewhere adding False keeps den.w = 1 + B.w, never -0.0, bit for bit
    den = Quaternion(den.w + at_inf, den.x, den.y, den.z)
    return den.inverse() * (q3 + bmat * q1), at_inf


# the fourth point with no input at infinity, and with p1, p2 or p3 there
_FOURTH_POINT = (
    _no_infinity,
    lambda q1, q2, q3, lam: (q3 - (q2 - q3) * lam, False),
    lambda q1, q2, q3, lam: ((Quaternion.one() - lam).inverse() * (q3 - lam * q1), False),
    lambda q1, q2, q3, lam: (q1 - lam.inverse() * (q1 - q2), False),
)


@dataclass(frozen=True)
class CrossRatioInvariant:
    """The Moebius-invariant pair {Re(lam), |Im(lam)|} of a quaternion."""

    re: float
    abs_im: float


def cr_invariant(lam: Quaternion) -> CrossRatioInvariant:
    return CrossRatioInvariant(lam.real_part(), lam.imag_norm())


def moebius_apply(m, p: HPoint) -> HPoint:
    """Left action of a GL(2, H) matrix ((a, b), (c, d)) on HP^1."""
    (a, b), (c, d) = m
    return HPoint(a * p.a + b * p.b, c * p.a + d * p.b)


# ---------------------------------------------------------------------------
# reguli and the Steiner cross ratio


@dataclass
class Regulus:
    """The conic of Q^4 through three pairwise skew lines f1, f2, f3.

    Its points are the lines of the regulus the three span.  The generators
    are the rows of a 3x6 array, at unit scale, and their pairings
    (g12, g13, g23), g_ab = <f_a, f_b>, give the conic's closed
    parametrization (_conic_point).
    """

    generators: np.ndarray
    pairings: tuple


def regulus_build(f1, f2, f3) -> Regulus:
    gens = np.array([normalize_proj(f) for f in (f1, f2, f3)])
    pairings = tuple(quadric_pair(gens[a], gens[b]) for a, b in ((0, 1), (0, 2), (1, 2)))
    if min(abs(g) for g in pairings) < 1e-8:
        raise GeometryError("generators-not-skew")
    return Regulus(gens, pairings)


def _conic_point(r: Regulus, t, s) -> np.ndarray:
    """The conic's point at [t : s], with f1, f2, f3 at infinity, 0 and 1.

    x = g23 t(t-s) f1 - g13 (t-s)s f2 + g12 ts f3 has <x, x> = 0 identically,
    since each g_aa vanishes, and <x, f1>, <x, f2>, <x, f3> are g12 g13 s^2,
    g12 g23 t^2 and g13 g23 (t-s)^2.
    """
    f1, f2, f3 = r.generators
    g12, g13, g23 = r.pairings
    return g23 * t * (t - s) * f1 - g13 * (t - s) * s * f2 + g12 * t * s * f3


def regulus_point(r: Regulus, z) -> np.ndarray:
    """The regulus line at parameter z.

    The closed form is off Q^4 by rounding, and a chain of fourth points,
    each built from the last, amplifies that; the wedge of the pair that
    line_factorize takes from two columns of the line matrix is decomposable
    whatever its input, so the result is snapped back onto the quadric.
    """
    z = as_ext(z)
    return normalize_proj(wedge(*line_factorize(_conic_point(r, z.num, z.den))))


def regulus_parameter(r: Regulus, a: np.ndarray) -> ExtC:
    """The CP^1 parameter [t : s] of a regulus line, from its pairings.

    By linearity a = k x(t, s) pairs with f1 / (g12 g13), f2 / (g12 g23) and
    y = (f1 / (g12 g13) + f2 / (g12 g23) - f3 / (g13 g23)) / 2 to k s^2, k t^2
    and k ts; [t : s] is the better conditioned of [t^2 : ts] and [ts : s^2].
    The pairings see only a's part in the conic's plane, so a is accepted
    only if the point at [t : s] is a itself.
    """
    a = normalize_proj(a)
    g12, g13, g23 = r.pairings
    p1, p2, p3 = r.generators @ QUADRIC_MATRIX @ a
    ss = p1 / (g12 * g13)
    tt = p2 / (g12 * g23)
    ts = 0.5 * (ss + tt - p3 / (g13 * g23))
    t, s = (tt, ts) if abs(tt) >= abs(ss) else (ts, ss)
    scale = max(abs(t), abs(s))
    if scale == 0.0 or proj_distance(_conic_point(r, t / scale, s / scale), a) > 1e-7:
        raise GeometryError("point is not on the regulus conic")
    return ExtC(t / scale, s / scale)


def steiner_cr(r: Regulus, a1, a2, a3, a4) -> ExtC:
    """Cross ratio of four conic points via their conic parameters."""
    zs = [regulus_parameter(r, a) for a in (a1, a2, a3, a4)]
    return complex_cr(*zs)


def steiner_fourth_point(f1, f2, f3, lam) -> np.ndarray:
    """The point completing f1, f2, f3 to Steiner cross ratio lam.

    Parameters are normalized so (f1, f2, f3) sit at (inf, 1, 0); for real lam
    and j-real generators the result is again j-real, for non-real lam it is a
    sphere half-touching the carrier of the conic.
    """
    lam = as_ext(lam)
    if lam.is_infinity(1e-14):
        raise GeometryError("degenerate cross-ratio value infinity")
    if abs(lam.value()) < 1e-13 or abs(lam.value() - 1.0) < 1e-13:
        raise GeometryError("degenerate cross-ratio value 0 or 1")
    # regulus normalization puts generators at (inf, 0, 1); reorder so that
    # the parameter quadruple is (inf, 1, 0, lam)
    return regulus_point(regulus_build(f1, f3, f2), lam)
