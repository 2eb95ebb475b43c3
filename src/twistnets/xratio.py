"""Cross ratios: complex (CP^1 with exact infinity), quaternionic, and the
Steiner cross ratio of four points on a conic in the Pluecker quadric.

Extended complex numbers are kept as homogeneous pairs [num : den] so that
infinity needs no special casing in the core formulas: with
d(u, v) = u_n v_d - v_n u_d the cross ratio is

    [z1, z2, z3, z4] = d(z1,z2) d(z3,z4) / (d(z2,z3) d(z4,z1)).

The real quaternionic fourth point works the same way on unit C^4 lifts of
points of HP^1: x3 splits along the twistor fibers of p1 and p2 as a + b,
and p4 = [x3 - lam a], with no affine chart and no case at infinity.

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

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .quat import Quaternion
from .proj4 import (
    DEFAULT_TOL,
    QUADRIC_MATRIX,
    GeometryError,
    _scale_down,
    line_factorize,
    normalize_proj,
    normalize_rows,
    proj_distance,
    quadric_pair,
    wedge,
)
from .twistor import HPoint, coincident_rows, j_on_vector, pair_rows


@dataclass(frozen=True)
class ExtC:
    """Point [num : den] of CP^1; den = 0 is the point at infinity.  A pair
    whose norm lies outside [1e-12, 1e76] is stored times the power of two
    that puts its largest real component in [0.5, 1): num and den then
    differ from the arguments, by an exact scaling that keeps the point.
    Four norms up to 1e76 keep the products of complex_cr below 1e305, and
    three, with a cross ratio below the infinity cut (1e14), those of
    complex_fourth_step below 1e243."""

    num: complex
    den: complex

    def __post_init__(self):
        num, den = self.num, self.den
        # hypot is 0 only for zeros, and not finite for a non-finite part or
        # a norm above the largest float
        if not 1e-12 <= math.hypot(num.real, num.imag, den.real, den.imag) <= 1e76:
            if num == 0 and den == 0:
                raise GeometryError("invalid homogeneous pair (0, 0)")
            if not (cmath.isfinite(num) and cmath.isfinite(den)):
                raise GeometryError("homogeneous pair must be finite")
            # the largest real component, at least the norm / 2, is out of
            # [1e-12, 1e75]
            num, den = _scale_down(np.array([num, den], dtype=complex), 1e-12, 1e75).tolist()
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)

    def is_infinity(self) -> bool:
        """Whether the point is infinity: |den| <= INF_CUT max(1, |num|), the
        one cut of CP^1; a finite value exists exactly where it is false."""
        return abs(self.den) <= INF_CUT * max(1.0, abs(self.num))

    def value(self) -> complex:
        if self.is_infinity():
            raise GeometryError("point at infinity has no finite value")
        return self.num / self.den

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


# |Im lam| above this makes a cross ratio complex: the circular evolution
# refuses it, and the lift evolves the conjugate parameters by it
REAL_TOL = 1e-13
# the one infinity cut of CP^1, of ExtC.is_infinity and check_cross_ratio
INF_CUT = 1e-14


def check_cross_ratio(lam):
    """The one test of a cross ratio before a fourth point, an evolution or
    a holonomy is built on it.

    lam is one value in a form as_ext takes, or an array of one per row.
    Raises unless every value is below the CP^1 infinity cut (as
    ExtC.is_infinity of [lam : 1]), not NaN, and more than DEFAULT_TOL from
    0 and 1, where the fourth point collapses onto p3 or p1.
    """
    if isinstance(lam, ExtC):
        lam = math.inf if lam.is_infinity() else lam.value()
    if isinstance(lam, (int, float, complex)):
        # one number in Python arithmetic, which costs less than numpy's
        size = abs(lam)
        bad = INF_CUT * size >= 1.0, math.isnan(size), min(size, abs(lam - 1.0)) < DEFAULT_TOL
    else:
        lam = np.asarray(lam)
        bad = ((INF_CUT * np.abs(lam) >= 1.0).any(), np.isnan(lam).any(),
               (np.minimum(np.abs(lam), np.abs(lam - 1.0)) < DEFAULT_TOL).any())
    for degenerate, what in zip(bad, ("infinity", "nan", "0 or 1")):
        if degenerate:
            raise GeometryError(f"degenerate cross-ratio value {what}")


def complex_fourth_point(z1, z2, z3, lam) -> ExtC:
    """The unique w with complex_cr(z1, z2, z3, w) = lam."""
    check_cross_ratio(lam)
    return complex_fourth_step(as_ext(z1), as_ext(z2), as_ext(z3), as_ext(lam).value())


def complex_fourth_step(z1: ExtC, z2: ExtC, z3: ExtC, lam: complex) -> ExtC:
    """complex_fourth_point on points of CP^1, with lam, checked by the
    caller, as a complex number: the face step of the complex evolution.
    Its products stay finite, since ExtC keeps each pair's norm at most
    1e76, and a pair scaled by a power of two gives the same bits."""
    # the cross ratio of p1, p2 and any two points is 0, never lam
    if z1.isclose(z2):
        raise GeometryError("coincident points p1 and p2")
    a, b = cross_det(z1, z2), cross_det(z2, z3)
    num = a * z3.num + lam * b * z1.num
    den = a * z3.den + lam * b * z1.den
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
    it tend to -1 together, which is what the closed forms below encode.
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
    if k == 0:    # [inf, q2, q3, q4] = -(q2-q3)^-1 (q3-q4)
        return -(a - b).inverse() * (b - c)
    if k == 1:    # [q1, inf, q3, q4] = -(q3-q4)(q4-q1)^-1
        return -(b - c) * (c - a).inverse()
    if k == 2:    # [q1, q2, inf, q4] = -(q1-q2)(q4-q1)^-1
        return -(a - b) * (c - a).inverse()
    # k == 3: [q1, q2, q3, inf] = -(q1-q2)(q2-q3)^-1
    return -(a - b) * (b - c).inverse()


def quat_fourth_point(p1: HPoint, p2: HPoint, p3: HPoint, lam: Quaternion) -> HPoint:
    """The unique p4 with quat_cr(p1, p2, p3, p4) = lam, for real lam: the
    batch of one of quat_fourth_points."""
    if lam.x or lam.y or lam.z:
        raise GeometryError("quat_fourth_point needs a real cross ratio")
    (a, b), = pair_rows(quat_fourth_points(p1.lift(), p2.lift(), p3.lift(), lam.w)).tolist()
    return HPoint(Quaternion(*a), Quaternion(*b))


def quat_fourth_points(x1, x2, x3, lam) -> np.ndarray:
    """quat_fourth_point row by row, on C^4 lifts of the points.

    Row k of the (k, 4) arrays x1, x2, x3 is a unit lift of p1, p2, p3; lam
    is one real number or one per row.  Distinct fibers are disjoint, so x1,
    x1 j, x2, x2 j are a frame of C^4 and x3 = a + b with a = c0 x1 + c1 x1 j
    on the fiber of p1 and b on that of p2.  The circle through the three
    points is [a t + b s] for real [t : s], with p1, p2, p3 at infinity, 0
    and 1, so p4 = [x3 - lam a] sits at 1 - lam, where quat_cr is lam.  No
    input or output is special at infinity.  Returns p4's unit lifts, (k, 4).
    Rows whose p1 and p2 coincide by coincident_rows are refused before the
    kernel runs.
    """
    x1, x2, x3 = (np.reshape(np.asarray(x, dtype=complex), (-1, 4)) for x in (x1, x2, x3))
    check_cross_ratio(lam)
    lam = np.asarray(lam, dtype=float)
    x1j = j_on_vector(x1)
    if coincident_rows(x2, x1, x1j).any():
        raise GeometryError("coincident points p1 and p2")
    return fourth_points_on_frames(np.stack([x1, x1j, x2, j_on_vector(x2)], axis=-2), x3, lam)


def fourth_points_on_frames(frames: np.ndarray, x3: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """quat_fourth_points' rows on their frames: row k of frames (k, 4, 4)
    holds x1, x1 j, x2, x2 j, and lam, checked by the caller, is a number or
    one per row.  A caller that keeps each lift's j-image stacks two stored
    (k, 2, 4) frames; nothing here computes one again.

    The kernel solves and normalizes; it does not test p1 and p2, and its
    callers test them by coincident_rows, before or after.  A row whose two
    points coincide gives a finite unit result that stands for no point:
    where its near-singular frame makes the batch fail (the solve raises,
    a result row is zero, or, under np.errstate(over="raise",
    invalid="raise"), a result overflows), the rows that coincident_rows
    flags are solved again on the identity frame, within this call."""
    try:
        return _fourth_points(frames, x3, lam)
    except (np.linalg.LinAlgError, FloatingPointError, GeometryError):
        coincident = coincident_rows(frames[:, 2], frames[:, 0], frames[:, 1])
    try:
        return _fourth_points(np.where(coincident[:, None, None], np.eye(4), frames), x3, lam)
    except np.linalg.LinAlgError:
        raise GeometryError("coincident points p1 and p2") from None


def _fourth_points(frames: np.ndarray, x3: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """p4 = [x3 - lam a], with x3 = a + b on the frame's two fibers."""
    # the frame's rows are the columns of the system
    c = np.linalg.solve(frames.swapaxes(-1, -2), x3[..., None])
    return normalize_rows(x3 - lam[..., None] * (c[:, 0] * frames[:, 0] + c[:, 1] * frames[:, 1]))


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
    parametrization (_conic_point).  duals, generators @ QUADRIC_MATRIX, is
    made once: duals @ a are a line's pairings with the generators.
    """

    generators: np.ndarray
    pairings: tuple
    duals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.duals = self.generators @ QUADRIC_MATRIX


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
    p1, p2, p3 = r.duals @ a
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
    check_cross_ratio(lam)
    # regulus normalization puts generators at (inf, 0, 1); reorder so that
    # the parameter quadruple is (inf, 1, 0, lam)
    return regulus_point(regulus_build(f1, f3, f2), lam)
