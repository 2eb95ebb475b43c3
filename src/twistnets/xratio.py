"""Cross ratios: complex (CP^1 with exact infinity), quaternionic, and the
Steiner cross ratio of four points on a conic in the Pluecker quadric.

Extended complex numbers are kept as homogeneous pairs [num : den] so that
infinity needs no special casing in the core formulas: with
d(u, v) = u_n v_d - v_n u_d the cross ratio is

    [z1, z2, z3, z4] = d(z1,z2) d(z3,z4) / (d(z2,z3) d(z4,z1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quat import Quaternion
from . import proj4
from .proj4 import (
    DEFAULT_TOL,
    FIBER_TOL,
    INCIDENCE_TOL,
    GeometryError,
    lines_incident,
    line_meet_point,
    normalize_proj,
    nullspace,
    quadric_pair,
    quadric_roots,
    sort_key,
    wedge,
)
from .twistor import HPoint, is_j_real, j_on_bivector, j_on_vector


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
    for a in range(4):
        for b in range(a + 1, 4):
            if zs[a].isclose(zs[b]):
                raise GeometryError(f"coincident points {a} and {b} in cross ratio")
    num = cross_det(zs[0], zs[1]) * cross_det(zs[2], zs[3])
    den = cross_det(zs[1], zs[2]) * cross_det(zs[3], zs[0])
    return ExtC(num, den)


def complex_fourth_point(z1, z2, z3, lam) -> ExtC:
    """The unique w with complex_cr(z1, z2, z3, w) = lam."""
    z1, z2, z3 = as_ext(z1), as_ext(z2), as_ext(z3)
    lam = as_ext(lam)
    if lam.is_infinity(1e-14):
        raise GeometryError("degenerate cross-ratio value infinity")
    lv = lam.value()
    if abs(lv) < DEFAULT_TOL or abs(lv - 1.0) < DEFAULT_TOL:
        raise GeometryError("degenerate cross-ratio value 0 or 1")
    a = cross_det(z1, z2)
    b = cross_det(z2, z3)
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
    finite = [p.affine() for i, p in enumerate(pts) if i != k]
    a, b, c = finite
    if k == 0:    # [inf, q2, q3, q4] = (q2-q3)^-1 (q3-q4)
        return (a - b).inverse() * (b - c)
    if k == 1:    # [q1, inf, q3, q4] = -(q3-q4)(q4-q1)^-1
        return -(b - c) * (c - a).inverse()
    if k == 2:    # [q1, q2, inf, q4] = -(q1-q2)(q4-q1)^-1
        return -(a - b) * (c - a).inverse()
    # k == 3: [q1, q2, q3, inf] = -(q1-q2)(q2-q3)^-1
    return -(a - b) * (b - c).inverse()


def quat_fourth_point(p1: HPoint, p2: HPoint, p3: HPoint, lam: Quaternion) -> HPoint:
    """The unique p4 with quat_cr(p1, p2, p3, p4) = lam."""
    if lam.is_zero() or (lam - Quaternion.one()).is_zero():
        raise GeometryError("degenerate cross-ratio value 0 or 1")
    inf_idx = [k for k, p in enumerate((p1, p2, p3)) if p.is_infinity()]
    if len(inf_idx) > 1:
        raise GeometryError("more than one point at infinity")
    if not inf_idx:
        q1, q2, q3 = p1.affine(), p2.affine(), p3.affine()
        bmat = (q2 - q3) * (q1 - q2).inverse() * lam
        den = Quaternion.one() + bmat
        if den.is_zero(1e-12):
            return HPoint.infinity()
        return HPoint.from_quaternion(den.inverse() * (q3 + bmat * q1))
    k = inf_idx[0]
    if k == 0:
        q2, q3 = p2.affine(), p3.affine()
        return HPoint.from_quaternion(q3 - (q2 - q3) * lam)
    if k == 1:
        q1, q3 = p1.affine(), p3.affine()
        den = Quaternion.one() - lam
        return HPoint.from_quaternion(den.inverse() * (q3 - lam * q1))
    q1, q2 = p1.affine(), p2.affine()
    return HPoint.from_quaternion(q1 - lam.inverse() * (q1 - q2))


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
    """A regulus through three pairwise skew lines, with its two transversals.

    Points of the regulus are parameterized by CP^1: the point at z is
    (p z + q) ^ (pt z + qt), with p, q on the transversal S and pt, qt on the
    second transversal, scaled so z = inf, 0, 1 give the three generators.
    """

    generators: tuple
    S: np.ndarray
    S_tilde: np.ndarray
    p: np.ndarray
    q: np.ndarray
    pt: np.ndarray
    qt: np.ndarray


def regulus_transversals(f1, f2, f3):
    """The two lines incident to all three pairwise skew generators."""
    gens = [normalize_proj(f) for f in (f1, f2, f3)]
    for a in range(3):
        for b in range(a + 1, 3):
            if lines_incident(gens[a], gens[b], 1e-8):
                raise GeometryError("generators-not-skew")
    rows = np.array([g @ proj4.QUADRIC_MATRIX for g in gens])
    w = nullspace(rows, 1e-10)
    if w.shape[1] != 3:
        raise GeometryError("generators-not-skew: polar system not rank 3")
    combos = [(0, 1), (0, 2), (1, 2)]
    shifts = [0.0, 0.37, -0.61, 1.13]
    for s in shifts:
        for i, jdx in combos:
            third = 3 - i - jdx
            g = w[:, i] + s * w[:, third]
            h = w[:, jdx]
            cands = quadric_roots(g, h)
            good = [x for x in cands
                    if abs(quadric_pair(x, x)) < INCIDENCE_TOL]
            if len(good) < 2:
                continue
            good.sort(key=sort_key)
            s1, s2 = good[0], good[1]
            if proj4.proj_distance(s1, s2) < 1e-6:
                continue
            if lines_incident(s1, s2, 1e-7):
                continue
            return s1, s2
    raise GeometryError("degenerate-normalization: no skew transversal pair found")


def _scaled_factors(S, f1, f2, f3):
    """Points p, q of S on f1, f2, scaled so the point of S on f3 is p + q."""
    p0 = line_meet_point(S, f1)
    q0 = line_meet_point(S, f2)
    r = line_meet_point(S, f3)
    coeffs, _, _, _ = np.linalg.lstsq(np.column_stack([p0, q0]), r, rcond=None)
    a, b = coeffs
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        raise GeometryError("degenerate-normalization")
    return p0 * a, q0 * b


def regulus_build(f1, f2, f3) -> Regulus:
    gens = tuple(normalize_proj(f) for f in (f1, f2, f3))
    S, St = regulus_transversals(*gens)
    all_real = all(is_j_real(g, FIBER_TOL) for g in gens)
    if all_real:
        # for generators fixed by the j-action the transversal pair is swapped
        # by j; using the exact j-image keeps real parameters exactly real
        Sj = normalize_proj(j_on_bivector(S))
        if proj4.proj_distance(Sj, S) > 1e-6:
            St = Sj
    p, q = _scaled_factors(S, *gens)
    if all_real and proj4.proj_distance(normalize_proj(j_on_bivector(S)), St) < 1e-8:
        pt, qt = j_on_vector(p), j_on_vector(q)
    else:
        pt, qt = _scaled_factors(St, *gens)
    return Regulus(gens, S, St, p, q, pt, qt)


def regulus_point(r: Regulus, z) -> np.ndarray:
    z = as_ext(z)
    v = r.p * z.num + r.q * z.den
    w = r.pt * z.num + r.qt * z.den
    return normalize_proj(wedge(v, w))


def regulus_parameter(r: Regulus, a: np.ndarray) -> ExtC:
    """The CP^1 parameter of a regulus point, read off on the transversal S."""
    a = normalize_proj(a)
    if not lines_incident(a, r.S, INCIDENCE_TOL) or \
            not lines_incident(a, r.S_tilde, INCIDENCE_TOL):
        raise GeometryError("point is not on the regulus conic")
    x = line_meet_point(a, r.S)
    coeffs, _, _, _ = np.linalg.lstsq(np.column_stack([r.p, r.q]), x, rcond=None)
    resid = np.linalg.norm(np.column_stack([r.p, r.q]) @ coeffs - x)
    if resid > 1e-7:
        raise GeometryError("point is not on the regulus conic")
    return ExtC(coeffs[0], coeffs[1])


def steiner_cr(r: Regulus, a1, a2, a3, a4) -> ExtC:
    """Cross ratio of four conic points via their transversal parameters."""
    zs = [regulus_parameter(r, a) for a in (a1, a2, a3, a4)]
    return complex_cr(*zs)


def steiner_fourth_point(f1, f2, f3, lam) -> np.ndarray:
    """The point completing f1, f2, f3 to Steiner cross ratio lam.

    Parameters are normalized so (f1, f2, f3) sit at (inf, 1, 0); for real lam
    and j-real generators the result is again j-real, for non-real lam it is a
    sphere half-touching the carrier of the conic.
    """
    lam = as_ext(lam)
    if not lam.is_infinity(1e-14):
        lv = lam.value()
        if abs(lv) < 1e-13 or abs(lv - 1.0) < 1e-13:
            raise GeometryError("degenerate cross-ratio value 0 or 1")
    else:
        raise GeometryError("degenerate cross-ratio value infinity")
    # regulus normalization puts generators at (inf, 0, 1); reorder so that
    # the parameter quadruple is (inf, 1, 0, lam)
    r = regulus_build(f1, f3, f2)
    return regulus_point(r, lam)
