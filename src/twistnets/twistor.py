"""The fibration CP^3 -> HP^1 and round two-spheres as lines in CP^3.

C^4 is identified with H^2 through the basis {e1, e1j, e2, e2j}: a pair of
quaternions (q1, q2) with q_m = z_{2m-1} + j z_{2m} corresponds to the complex
coordinate vector (z1, z2, z3, z4).  Right multiplication by j on H^2 induces
an antilinear map J on C^4; projective lines fixed by the induced action on
bivectors are exactly the fibers of the projection to HP^1, and the remaining
lines correspond to round two-spheres in S^4 = HP^1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quat import Quaternion
from . import proj4
from .proj4 import (
    DEFAULT_TOL,
    FIBER_TOL,
    INCIDENCE_TOL,
    RANK_CUT,
    GeometryError,
    line_factorize,
    line_point,
    normalize_proj,
    normalize_rows,
    nullspace,
    span_residual_rows,
    wedge,
    wedge_rows,
)


@dataclass(frozen=True)
class HPoint:
    """Point [a : b] of HP^1 in right-scale homogeneous coordinates.  A pair
    whose norm lies outside [1e-12, 1e100] is stored times the power of two
    that puts its largest component in [0.5, 1): a and b then differ from
    the arguments, by an exact scaling that keeps the point."""

    a: Quaternion
    b: Quaternion

    def __post_init__(self):
        a, b = self.a, self.b
        parts = (a.w, a.x, a.y, a.z, b.w, b.x, b.y, b.z)
        # hypot is 0 only for zeros, and not finite for a non-finite entry or
        # a norm above the largest float
        if not 1e-12 <= math.hypot(*parts) <= 1e100:
            if not any(parts):
                raise GeometryError("homogeneous quaternion pair must be nonzero")
            if not all(map(math.isfinite, parts)):
                raise GeometryError("homogeneous quaternion pair must be finite")
            # the largest component, at least the norm / sqrt(8), is out of [1e-12, 1e99]
            parts = proj4._scale_down(np.array(parts), 1e-12, 1e99).tolist()
            object.__setattr__(self, "a", Quaternion(*parts[:4]))
            object.__setattr__(self, "b", Quaternion(*parts[4:]))

    @staticmethod
    def from_quaternion(q: Quaternion) -> "HPoint":
        return HPoint(q, Quaternion.one())

    @staticmethod
    def infinity() -> "HPoint":
        return HPoint(Quaternion.one(), Quaternion(0, 0, 0, 0))

    def is_infinity(self) -> bool:
        """|b| < DEFAULT_TOL |(a, b)|, which no scale of the pair changes."""
        nb = self.b.norm()
        return nb < DEFAULT_TOL * math.hypot(self.a.norm(), nb)

    def affine(self) -> Quaternion:
        """The quaternion q with self = [q : 1]; raises at infinity."""
        if self.is_infinity():
            raise GeometryError("point at infinity has no affine coordinate")
        return self.a * self.b.inverse()

    def lift(self) -> np.ndarray:
        """A C^4 representative (the complex coordinates of (a, b))."""
        z1, z2 = self.a.complex_pair()
        z3, z4 = self.b.complex_pair()
        return normalize_proj(np.array([z1, z2, z3, z4], dtype=complex))

    def isclose(self, other: "HPoint", tol: float = DEFAULT_TOL) -> bool:
        # right-scale invariance: the lift must lie in the other point's
        # quaternionic line, i.e. in span{lift, J lift}
        return bool(span_residual_rows(self.lift(), *fiber_pair(other)) < tol)


_J_PERM = np.array([1, 0, 3, 2])
_J_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


def j_on_vector(v: np.ndarray) -> np.ndarray:
    """Right j-multiplication on H^2 in complex coordinates (antilinear,
    J^2 = -1), along the last axis."""
    c = np.conj(np.asarray(v, dtype=complex))
    # one vector is cheaper to build from its entries than by fancy indexing
    return np.array([-c[1], c[0], -c[3], c[2]]) if c.ndim == 1 else c[..., _J_PERM] * _J_SIGN


def j_on_bivector(a: np.ndarray) -> np.ndarray:
    """Induced action (v ^ w) -> (vj ^ wj) on Pluecker vectors; squares to +id."""
    a = np.asarray(a, dtype=complex)
    c = np.conj(a)
    return np.array([c[0], c[4], -c[3], -c[2], c[1], c[5]])


def is_j_real(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the bivector's line is fixed by the j-action, a twistor fiber:
    its angle to its j-image, which no scale or phase of a changes, is under
    tol."""
    return proj4.proj_distance(a, j_on_bivector(a)) < tol


def twistor_project(v: np.ndarray) -> HPoint:
    """The point of HP^1 under (z1,z2,z3,z4) -> [z1 + j z2 : z3 + j z4]."""
    # one norm by hypot, which does not overflow; under its 1e-12 cut a
    # vector is no point
    v = proj4._unit(v)
    return HPoint(Quaternion.from_complex_pair(v[0], v[1]),
                  Quaternion.from_complex_pair(v[2], v[3]))


def quat_pairs(points) -> np.ndarray:
    """The pairs (a, b) of a sequence of points [a : b], as a (k, 2, 4) array."""
    return np.array([((p.a.w, p.a.x, p.a.y, p.a.z), (p.b.w, p.b.x, p.b.y, p.b.z))
                     for p in points], dtype=float).reshape(-1, 2, 4)


# the quaternion 1 as a row, and the pair [1 : 0] of the point at infinity
QUAT_ONE = (1.0, 0.0, 0.0, 0.0)
INF_PAIR = (QUAT_ONE, (0.0, 0.0, 0.0, 0.0))
_CONJ_Z = np.array([1.0, 1.0, 1.0, -1.0])


def affine_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HPoint.is_infinity and HPoint.affine over leading axes of quaternion
    pairs (..., 2, 4): the mask of points at infinity, and a b^-1 elsewhere
    (1 at infinity)."""
    # document pairs reach here without HPoint's scaling: pairs whose largest
    # component lies outside [1e-100, 1e100] are scaled as the constructor
    # scales a pair
    shape = pairs.shape
    pairs = proj4._scale_down(pairs.reshape(shape[:-2] + (8,)), 1e-100, 1e100).reshape(shape)
    # Quaternion arithmetic on arrays of components acts elementwise, in the
    # order HPoint.affine takes on floats, so each row is its value bit for bit
    a, b = (Quaternion(*np.moveaxis(pairs[..., k, :], -1, 0)) for k in (0, 1))
    nb2 = b.norm_sq()
    norms = np.hypot.reduce(pairs, axis=-1)
    at_inf = norms[..., 1] < DEFAULT_TOL * np.hypot(norms[..., 0], norms[..., 1])
    q = a * (b.conjugate() * (1.0 / np.where(at_inf, 1.0, nb2)))
    return np.where(at_inf[..., None], QUAT_ONE, np.stack([q.w, q.x, q.y, q.z], axis=-1)), at_inf


def lift_rows(pairs: np.ndarray) -> np.ndarray:
    """HPoint.lift over leading axes of quaternion pairs (..., 2, 4), as
    rows (..., 4): the same rule, with normalize_rows' rounding, which may
    differ from HPoint.lift's in the last bits.  Raw pairs, as documents
    give them, are first scaled as HPoint scales them (window [1e-12, 1e100])."""
    # (w, x) and (y, -z) of a quaternion are the real and imaginary parts of
    # its complex pair
    parts = proj4._scale_down((pairs * _CONJ_Z).reshape(pairs.shape[:-2] + (8,)), 1e-12, 1e100)
    return normalize_rows(parts.view(complex))


def pair_rows(v: np.ndarray) -> np.ndarray:
    """The quaternion pairs (..., 2, 4) of C^4 rows (..., 4): lift_rows'
    inverse up to scale."""
    v = np.ascontiguousarray(v, dtype=complex)
    return v.view(float).reshape(v.shape[:-1] + (2, 4)) * _CONJ_Z


def real_fiber_rows(v: np.ndarray) -> np.ndarray:
    """The twistor fibers x = v ^ vj of unit lifts v (..., 4) as unit real
    rows (..., 6), their coordinates in the real section of the Pluecker
    quadric.  x is j-real as computed: x01 = |v0|^2 + |v1|^2 and x23 are
    real, x13 = conj(x02) and x12 = -conj(x03).  So (x01, x23, sqrt2 x02,
    sqrt2 x03), x02 and x03 split into real and imaginary parts, is an
    isometry of the j-real bivectors onto R^6: the rows have the Gram matrix,
    and four of them the singular values, of their complex fibers."""
    v0, v1, v2, v3 = np.moveaxis(v, -1, 0)
    sq = v.real ** 2 + v.imag ** 2
    x02 = math.sqrt(2.0) * (v2 * v1.conj() - v0 * v3.conj())
    x03 = math.sqrt(2.0) * (v0 * v2.conj() + v3 * v1.conj())
    return np.stack([sq[..., 0] + sq[..., 1], sq[..., 2] + sq[..., 3],
                     x02.real, x02.imag, x03.real, x03.imag], axis=-1)


def coincident_rows(x: np.ndarray, v: np.ndarray, vj: np.ndarray | None = None) -> np.ndarray:
    """Which unit rows x (..., 4) lift the points of the unit rows v: their
    distance from the fiber span{v, vj} is under 1e-10 (HPoint.isclose).
    vj, j_on_vector(v), may be passed by a caller that has it."""
    return span_residual_rows(x, v, j_on_vector(v) if vj is None else vj) < 1e-10


def fiber_pair(p: HPoint) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal pair (v, vj) spanning the twistor fiber over p."""
    v = p.lift()
    return v, j_on_vector(v)


def fiber_rows(v: np.ndarray) -> np.ndarray:
    """The twistor fibers v ^ vj through the rows v (..., 4), as Pluecker
    rows (..., 6); unit rows v give unit fibers."""
    return wedge_rows(v, j_on_vector(v))


def twistor_fiber(p: HPoint) -> np.ndarray:
    """The line v ^ vj over a point of HP^1; always a j-real quadric point."""
    return normalize_proj(fiber_rows(p.lift()))


@dataclass
class SphereEndo:
    """A round two-sphere as an endomorphism of H^2 with square -Identity.

    Stored as the 4x4 complex matrix of the right-H-linear map in the global
    basis; the i-eigenspace (a complex 2-plane) is the corresponding line in
    CP^3.  In an adapted quaternionic basis the matrix takes the upper
    triangular form (R, H; 0, N) with R^2 = N^2 = -1.

    The first column gives the center.  As a quaternionic matrix
    (A, B; C, D) in sphere_from_rhn's layout, A has the complex pair
    (M00, M10) and C the pair (M20, M30), so S maps infinity [1 : 0] to
    [A : C].  S fixes exactly the sphere's points: C = 0 for a sphere through
    infinity.  Otherwise S^2 = -1 gives D = -C A C^-1, and q = A C^-1 + y is
    on the sphere iff (yC)^2 = -1: the center is S(infinity) = A C^-1, the
    radius 1/|C|, and the sphere spans the 3-plane normal to conj(C).
    """

    matrix: np.ndarray

    def eigenline(self) -> np.ndarray:
        """The i-eigenspace as a Pluecker vector."""
        ns = nullspace(self.matrix - 1j * np.eye(4), RANK_CUT)
        if ns.shape[1] != 2:
            raise GeometryError("endomorphism has no 2-dim i-eigenspace")
        return normalize_proj(wedge(ns[:, 0], ns[:, 1]))

    def squares_to_minus_identity(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.linalg.norm(self.matrix @ self.matrix + np.eye(4)) < tol * 4)


def sphere_from_eigenvectors(v: np.ndarray, w: np.ndarray) -> SphereEndo:
    """The unique sphere endomorphism with i-eigenspace span{v, w}.

    The right-H-linear extension forces the Jv, Jw directions onto the
    -i-eigenvalue.  A j-real eigenline is decided at FIBER_TOL, as in
    sphere_from_line, so every line that is no point there is a sphere.
    """
    v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
    if is_j_real(wedge(v, w), FIBER_TOL):
        raise GeometryError("eigenline is j-real: no sphere, only a point")
    basis = np.column_stack([v, w, j_on_vector(v), j_on_vector(w)])
    return SphereEndo(basis @ np.diag([1j, 1j, -1j, -1j]) @ np.linalg.inv(basis))


def sphere_from_line(a: np.ndarray):
    """A decomposable bivector as either an HP^1 point (j-real) or a sphere."""
    if not proj4.is_decomposable(a, INCIDENCE_TOL):
        raise GeometryError("sphere_from_line needs a decomposable bivector")
    v, w = line_factorize(a)
    return twistor_project(v) if is_j_real(a, FIBER_TOL) else sphere_from_eigenvectors(v, w)


def quat_matrix(qmat) -> np.ndarray:
    """The complex 4x4 matrix of a 2x2 quaternionic matrix in the basis
    {e1, e1j, e2, e2j}: each entry z1 + j z2 becomes the block
    (z1, -conj(z2); z2, conj(z1))."""
    m = np.zeros((4, 4), dtype=complex)
    for row, entries in enumerate(qmat):
        for col, q in enumerate(entries):
            z1, z2 = q.complex_pair()
            m[2 * row:2 * row + 2, 2 * col:2 * col + 2] = ((z1, -np.conj(z2)),
                                                         (z2, np.conj(z1)))
    return m


def sphere_from_rhn(R: Quaternion, H: Quaternion, N: Quaternion) -> SphereEndo:
    """Build the sphere with quaternionic matrix (R, H; 0, N).

    Valid when R^2 = N^2 = -1 and RH + HN = 0, each to 1e-8 of the size of
    its terms, so that a sphere far from the origin, of large H, passes as
    one near it; the affine sphere is the set of q with qN - Rq = 2H.
    """
    # R and N are unit once their squares pass, so the squares' terms are
    # 1 + 1 and the relation's |RH| + |HN| = 2|H|, plus those 2: an H made
    # from a center carries rounding of the center's size
    one = Quaternion.one()
    if not ((R * R + one).norm() <= 2e-8 and (N * N + one).norm() <= 2e-8
            and (R * H + H * N).norm() <= 2e-8 * (1.0 + H.norm())):
        raise GeometryError("matrix (R,H;0,N) does not square to -Identity")
    return SphereEndo(quat_matrix(((R, H), (Quaternion(0, 0, 0, 0), N))))


def sphere_translate(center: Quaternion, R: Quaternion, N: Quaternion) -> SphereEndo:
    """The translate through `center` of the sphere {q : qN = Rq}.

    The stabilized line set of the matrix (R, H; 0, N) is exactly
    {q : qN - Rq = H}, so the translate uses H = center*N - R*center.
    """
    return sphere_from_rhn(R, center * N - R * center, N)


def sphere_contains(s: SphereEndo, p: HPoint, tol: float = DEFAULT_TOL) -> bool:
    """True iff the endomorphism stabilizes the quaternionic line of p.

    Equivalently S v lies in span{v, Jv} for a lift v, with eigen-quaternion
    mu of square -1.
    """
    v, vj = fiber_pair(p)
    target = s.matrix @ v
    return bool(span_residual_rows(target, v, vj) < tol * max(1.0, float(np.linalg.norm(target))))


@dataclass
class ContactClass:
    """Outcome of comparing the point sets of two sphere lines in CP^3."""

    tag: str  # disjoint | touch | half_touch | identical | circle_intersection
    witnesses: tuple = field(default_factory=tuple)  # HPoints on both spheres


def plane_fiber(plane: proj4.ProjPlane) -> np.ndarray:
    """The unique twistor fiber contained in a plane of CP^3.

    The plane f meets its j-image, the plane j_on_vector(f), in a J-invariant
    line, hence a fiber: the Hodge dual of f ^ j_on_vector(f), fiber_rows(f).
    The two planes never coincide, because J-invariant subspaces have even
    dimension; f and j_on_vector(f) are orthogonal and of equal norm.
    """
    return normalize_proj(proj4.QUADRIC_MATRIX @ fiber_rows(plane.functional))


# distance, incidence and tangency cut of classify_contact
_CONTACT_TOL = 1e-8


def classify_contact(a: np.ndarray, b: np.ndarray) -> ContactClass:
    """Classify the contact of the two sphere point-sets given by lines a, b.

    Incident lines span a plane; that plane's unique fiber either passes
    through the common point (tangency at one point) or not (point sets
    sharing exactly the two projections of the plane's distinguished points).
    Non-incident lines give disjoint spheres unless a meets bj, in which case
    the two point sets share a full circle; its one witness is the projection
    of that meet, which is also the projection of the meet of aj and b, its
    J-image.
    """
    a, b = proj4._unit(a), proj4._unit(b)
    tag, meet, _ = _contact(a, b, j_on_bivector(b))
    return ContactClass(tag, _witnesses(tag, meet))


def _contact(a: np.ndarray, b: np.ndarray, bj: np.ndarray, prefer: str | None = None):
    """classify_contact of unit lines a and b, with bj = j_on_bivector(b), as
    (tag, meet, flipped): meet is the (point, plane) of the incident pair the
    witnesses come from, None for identical and disjoint lines.

    b and bj are the two orientations of one sphere, so they share the
    identical test, and the incidences of a with b and with bj decide both
    pairs: where a meets only bj, (a, b) share a circle and (a, bj) touch or
    half-touch at the same meet.  With prefer, a tag: where (a, b) is not of
    that class and (a, bj) is, the class of (a, bj) is returned, flipped
    True.  Every test is a residual of the unit lines, so none depends on
    their phases.
    """
    return _line_contact(proj4._UnitLine(a), proj4._UnitLine(b), proj4._UnitLine(bj), prefer)


def _line_contact(a: proj4._UnitLine, b: proj4._UnitLine, bj: proj4._UnitLine,
                  prefer: str | None = None):
    """_contact on _UnitLines, which keep what their meets read: a's dual
    line matrix serves both of its meets and every later call with the same
    a, and each meet takes the pairing that the incidence test computed."""
    if (proj4._unit_distance(a.vec, b.vec) < _CONTACT_TOL
            or proj4._unit_distance(a.vec, bj.vec) < _CONTACT_TOL):
        return "identical", None, False
    ab, abj = proj4.quadric_pair(a.vec, b.vec), proj4.quadric_pair(a.vec, bj.vec)
    on_b, on_bj = abs(ab) < _CONTACT_TOL, abs(abj) < _CONTACT_TOL
    if not (on_b or on_bj):
        return "disjoint", None, False
    meet = proj4._line_meet(a, b, ab) if on_b else proj4._line_meet(a, bj, abj)
    tag = _tangency(meet) if on_b else "circle_intersection"
    if prefer is None or tag == prefer or not on_bj:
        return tag, meet, False
    # a circle's meet is already that of a and bj
    meet_j = proj4._line_meet(a, bj, abj) if on_b else meet
    tag_j = _tangency(meet_j)
    return (tag_j, meet_j, True) if tag_j == prefer else (tag, meet, False)


def _tangency(meet) -> str:
    """touch or half_touch of two incident lines, from their meet_join."""
    p, plane = meet
    # tangency iff the common point lies on the plane's fiber, the points
    # x of the plane with Jx in it too; J maps the plane's part orthogonal
    # to the fiber onto its normal, so |f(Jp)| is p's distance from it
    return "touch" if plane.residual(j_on_vector(p)) < _CONTACT_TOL else "half_touch"


def _witnesses(tag: str, meet) -> tuple:
    """The witnesses of _contact's class: the projection of the meet point,
    and for half_touch the second common point, which projects from the
    plane's fiber."""
    if meet is None:
        return ()
    p, plane = meet
    if tag == "half_touch":
        return twistor_project(p), twistor_project(line_point(plane_fiber(plane)))
    return (twistor_project(p),)
