"""Contact elements as pencils of lines and their nets over a lattice.

A pencil of projective lines through a fixed point inside a fixed plane of
CP^3 maps to a projective line contained in the Pluecker quadric; such a
pencil is a (possibly complex) contact element of the sphere space.  A pencil
containing a twistor fiber represents all spheres mutually touching at one
point of S^4; a pencil with no fiber member is a half-contact element.

A net of contact elements grows by one incidence step per lattice edge: the
fiber over the next base point meets the element's plane in the new pencil
point and spans the new plane with the element's point.  So the new point
depends on the old plane alone and the new plane on the old point alone,
through linear maps of C^4 that fiber_matrices builds once per net.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import proj4
from .proj4 import (
    DEFAULT_TOL,
    INCIDENCE_TOL,
    LINE_IN_PLANE,
    DocumentError,
    GeometryError,
    ProjPlane,
    join_matrices,
    lines_incident,
    meet_join,
    normalize_proj,
    normalize_rows,
    row_norms,
    settle_planes,
    span_planes,
    span_residual,
    wedge,
)
from .twistor import (
    HPoint,
    coincident_rows,
    j_on_vector,
    twistor_fiber,
    twistor_project,
)
from .nets import LatticeNet, first_missing, in_box, sphere_frame
from .xratio import as_ext


# |f @ x| bound for the unit pencil point x in the plane with functional f
PENCIL_TOL = 1e-7


@dataclass
class NullLine:
    """The pencil of lines through a point inside a plane containing it."""

    point: np.ndarray
    plane: ProjPlane

    def __post_init__(self):
        self.point = normalize_proj(self.point)
        if not self.plane.contains(self.point, PENCIL_TOL):
            raise GeometryError("pencil point must lie in the pencil plane")

    def pencil_basis(self):
        """Two spanning directions u, v with members point ^ (u z + v w)."""
        # complete the point to a basis of the plane; the basis is
        # orthonormal, so the point's coordinates are inner products
        b = self.plane.basis
        coeff = b.conj().T @ self.point
        k = int(np.argmax(np.abs(coeff)))
        return tuple(b[:, i] for i in range(3) if i != k)

    def member(self, z) -> np.ndarray:
        z = as_ext(z)
        u, v = self.pencil_basis()
        return normalize_proj(wedge(self.point, u * z.num + v * z.den))

    def sample(self, n: int) -> list:
        return [self.member(complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
                for t in np.linspace(0.0, 1.0, n, endpoint=False)]

    def contains_line(self, a: np.ndarray, tol: float = 1e-7) -> bool:
        """True iff the line a is a member of the pencil."""
        v, w = proj4.line_factorize(a)
        return (span_residual(self.point, v, w) < tol
                and self.plane.contains(v, tol) and self.plane.contains(w, tol))


def null_line_real_point(l: NullLine):
    """The unique point of S^4 whose fiber belongs to the pencil, if any.

    The fiber through the pencil point lies in the plane exactly when the
    j-image of the point does; in that case the pencil is a genuine contact
    element and the real member is the fiber over the projected point.
    Returns None for half-contact elements.
    """
    return twistor_project(l.point) if l.plane.contains(j_on_vector(l.point), PENCIL_TOL) else None


def contact_element(p: HPoint, sphere: np.ndarray) -> NullLine:
    """The pencil of spheres touching the given sphere at the point p.

    The pencil point is the lift of p on the sphere's twistor line and the
    plane is spanned by that line together with the fiber of p.
    """
    fib = twistor_fiber(p)
    if not lines_incident(sphere, fib, INCIDENCE_TOL):
        raise GeometryError("point is not on the sphere")
    return NullLine(*meet_join(sphere, fib))


def propagate_element(l: NullLine, p_next: HPoint) -> NullLine:
    """The unique adjacent contact element at p_next intersecting l: the
    batch of one of propagate_elements."""
    point, functional = propagate_elements(l.point, l.plane.functional, p_next.lift())
    return NullLine(point, ProjPlane(functional))


def propagate_elements(points: np.ndarray, functionals: np.ndarray,
                       lifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent contact elements, row by row over leading axes.

    Row k holds a contact element (its unit pencil point and plane
    functional) and the unit lift v of the next base point.  The fiber
    (v, vj) meets the element's plane in the new point, and the new plane,
    spanned by the fiber and the old point, holds the line joining the two
    points, the sphere the two pencils share.  One step on the
    fiber_matrices of the lifts; returns the new points and functionals,
    normalized.
    """
    points, functionals = _propagate(np.asarray(points, dtype=complex),
                                     np.asarray(functionals, dtype=complex),
                                     *fiber_matrices(np.asarray(lifts, dtype=complex)))
    return normalize_rows(points), normalize_rows(functionals)


def fiber_matrices(lifts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The twistor fiber over each unit lift v (..., 4) as the matrices of a
    propagation step onto it, for row vectors:

    - fibers (..., 2, 4), the rows v and vj;
    - meets (..., 4, 2), the columns vj and -v: f @ meets are the
      coordinates on those rows of v (f @ vj) - vj (f @ v), the point where
      the plane with functional f meets the fiber;
    - joins (..., 4, 4), proj4.join_matrices: y @ joins is the ∧³ functional
      of span{v, vj, y}.
    """
    vj = j_on_vector(lifts)
    fibers = np.stack([lifts, vj], axis=-2)
    return fibers, j_on_vector(fibers).swapaxes(-1, -2), join_matrices(lifts, vj)


class StepError(GeometryError):
    """A propagation step's failure; row is the index, over the step's
    leading axes, of the first row in row order that fails a check."""

    def __init__(self, message: str, row: tuple):
        super().__init__(message)
        self.row = row


def _propagate(points: np.ndarray, functionals: np.ndarray, fibers: np.ndarray,
               meets: np.ndarray, joins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One propagation step of contact elements, unit rows of points and
    functionals, onto the fibers of fiber_matrices: the new point is
    (f @ meets) @ fibers of the old functional f, the new functional
    y @ joins of the old point y.  Returns them unit-scaled, or raises a
    StepError for the first failing row, with the message of the first check
    that row fails.

    Taken in the fiber's coordinates, the meet is a combination of the
    stored rows v and vj; through the 4x4 line matrix of v ^ vj, one product
    fewer, PCEN closure and adjacency residuals came out about a quarter
    larger.  The checks are those of the scalar constructions: meet_span's
    line-in-plane cut (relative to |v| |vj| = 1), span_planes' certificate
    with an SVD for each row it leaves open, and NullLine's pencil condition.
    """
    point = ((functionals[..., None, :] @ meets) @ fibers)[..., 0, :]
    size = row_norms(point)
    in_plane = size[..., 0] < DEFAULT_TOL
    any_in_plane = in_plane.any()
    functional = (points[..., None, :] @ joins)[..., 0, :]
    # the element's point lies on the fiber over its own base point, and
    # distinct fibers are disjoint: v, vj and that point fail to span a plane
    # only when the next base point coincides with the element's
    no_span = {}
    functional = settle_planes(np.concatenate([fibers, points[..., None, :]], axis=-2),
                               functional, 3, no_span)
    point /= np.where(in_plane[..., None], 1.0, size) if any_in_plane else size
    on_pencil = np.abs((point * functional).sum(axis=-1)) < PENCIL_TOL
    if no_span or any_in_plane or not on_pencil.all():
        failed = np.array(in_plane | ~on_pencil)
        for row in no_span:
            failed[row] = True
        row = tuple(np.argwhere(failed)[0].tolist())
        if in_plane[row]:
            raise StepError(f"fiber-in-plane degeneracy: {LINE_IN_PLANE}", row)
        if row in no_span:
            raise StepError(f"next point coincides with the element's point: {no_span[row]}",
                            row) from no_span[row]
        raise StepError("pencil point must lie in the pencil plane", row)
    return point, functional


def shared_sphere(l1: NullLine, l2: NullLine) -> np.ndarray:
    """The unique pencil member common to two adjacent elements."""
    line = normalize_proj(wedge(l1.point, l2.point))
    if not (l1.contains_line(line, 1e-6) and l2.contains_line(line, 1e-6)):
        raise GeometryError("elements do not intersect in a common sphere")
    return line


class PCEN(Mapping):
    """A principal contact element net over a lattice of base points.

    The element at a vertex of the base's box is a pencil point and a plane
    functional, unit rows of points and functionals (box + (4,)); present
    marks the vertices that have one.  As a mapping (pcen.elements is the
    PCEN itself) it takes each such lattice index to its NullLine, built on
    access.
    """

    def __init__(self, base: LatticeNet, points, functionals, present=None):
        self.base = base
        self.present = np.ones(base.shape, dtype=bool) if present is None else present
        self.points, self.functionals = np.zeros((2,) + base.shape + (4,), dtype=complex)
        self.points[self.present] = normalize_rows(points[self.present])
        self.functionals[self.present] = normalize_rows(functionals[self.present])
        # NullLine's condition, on all elements at once
        if not (np.abs((self.points * self.functionals).sum(axis=-1)) < PENCIL_TOL).all():
            raise GeometryError("pencil point must lie in the pencil plane")

    @property
    def elements(self) -> "PCEN":
        return self

    def __getitem__(self, idx) -> NullLine:
        idx = tuple(idx)
        if idx not in self:
            raise KeyError(idx)
        return NullLine(self.points[idx], ProjPlane(self.functionals[idx]))

    def __contains__(self, idx) -> bool:
        idx = tuple(idx)
        return in_box(idx, self.base.shape) and bool(self.present[idx])

    def __iter__(self):
        return (tuple(idx) for idx in np.argwhere(self.present).tolist())

    def __len__(self) -> int:
        return int(self.present.sum())

    def require_elements(self):
        """Raise for the first vertex of the box without an element."""
        if (missing := first_missing(self.present)) is not None:
            raise DocumentError(f"PCEN has no element at {missing}")


def _edges(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows at the two ends of every lattice edge along an axis, stacked
    as (k, 4) arrays."""
    lo = (slice(None),) * axis + (slice(None, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    return a[lo].reshape(-1, 4), a[hi].reshape(-1, 4)


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.conj() * b).sum(axis=-1, keepdims=True)


def _check_distinct_neighbors(lifts: np.ndarray):
    """No two neighbouring base points coincide, by coincident_rows."""
    shape = lifts.shape[:-1]
    collisions = []
    for ax in range(len(shape)):
        close = coincident_rows(*_edges(lifts, ax))
        close = close.reshape(tuple(n - (k == ax) for k, n in enumerate(shape)))
        collisions += [(tuple(idx), ax) for idx in np.argwhere(close).tolist()]
    if collisions:
        idx, ax = min(collisions)
        nxt = tuple(i + (k == ax) for k, i in enumerate(idx))
        raise GeometryError(f"colliding base points at {idx} and {nxt}")


def pcen_from_circular(base: LatticeNet, initial: NullLine) -> PCEN:
    """Propagate an initial contact element over a circular base net.

    The fiber matrices of every base point are built once.  Column m = 0 is
    propagated along n, and every later column from the one before it in one
    step: the element at (m, n) comes from (m - 1, n), or from (0, n - 1)
    when m = 0.  For circular bases the two routes agree on every face,
    which pcen_face_closure verifies.  A failed step names the first vertex
    it fails at, in row order, and the one it propagates from.
    """
    if base.kind != "hp1" or base.dim != 2:
        raise GeometryError("circular base must be a 2-dim hp1 net")
    base.require_complete()
    lifts = base.lifts()
    _check_distinct_neighbors(lifts)
    rp = null_line_real_point(initial)
    if rp is None or not rp.isclose(base[0, 0], 1e-7):
        raise GeometryError("initial element must be a contact element at the origin")
    fibers, meets, joins = fiber_matrices(lifts)
    points = np.empty_like(lifts)
    functionals = np.empty_like(lifts)
    points[0, 0], functionals[0, 0] = initial.point, initial.plane.functional
    try:
        for n in range(1, base.shape[1]):
            at = (0, n)
            points[at], functionals[at] = _propagate(
                points[0, n - 1], functionals[0, n - 1], fibers[at], meets[at], joins[at])
        for m in range(1, base.shape[0]):
            at = (m,)
            points[m], functionals[m] = _propagate(
                points[m - 1], functionals[m - 1], fibers[m], meets[m], joins[m])
    except StepError as exc:
        m, n = at + exc.row
        source = (m - 1, n) if m else (0, n - 1)
        raise GeometryError(f"at {(m, n)} from {source}: {exc}") from exc
    return PCEN(base, points, functionals)


def closure_faces(pcen: PCEN) -> np.ndarray:
    """Which faces pcen_face_closure checks: a boolean array over the faces
    (m, n) -> (m + 1, n + 1) of a 2-dim net, true where the far vertex
    (m + 1, n + 1) has a base point."""
    if pcen.base.kind != "hp1" or pcen.base.dim != 2:
        raise GeometryError("face closure needs a 2-dim hp1 base net")
    return pcen.base.present[1:, 1:].copy()


def pcen_face_closure(pcen: PCEN) -> float:
    """Largest disagreement between the two propagation routes over a face.

    On each face of closure_faces the element at the far vertex is
    propagated once from each of its two lower neighbours, all faces in one
    step per route on fiber matrices built once; the residual is the larger
    proj_distance of the two points and of the two plane functionals.
    """
    faces = closure_faces(pcen)
    if not faces.any():
        return 0.0
    pcen.require_elements()
    points, functionals = pcen.points, pcen.functionals
    fiber = fiber_matrices(pcen.base.lifts()[1:, 1:][faces])
    via_m = _propagate(points[:-1, 1:][faces], functionals[:-1, 1:][faces], *fiber)
    via_n = _propagate(points[1:, :-1][faces], functionals[1:, :-1][faces], *fiber)
    return float(max(_proj_distances(a, b).max() for a, b in zip(via_m, via_n)))


def _proj_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """proj4.proj_distance row by row."""
    a, b = a / row_norms(a), b / row_norms(b)
    ortho = b - a * _vdot_rows(a, b)
    return np.arcsin(np.minimum(1.0, row_norms(ortho)[:, 0]))


def pcen_adjacency_residual(pcen: PCEN) -> float:
    """Largest failure of adjacent elements to share a pencil member.

    For each lattice edge the line joining the two pencil points, spanned by
    an orthonormal pair (v, w), must be a member of both pencils; the
    residual is the sum of _member_residuals over the two ends.  The edges
    along each axis are checked in one pass.
    """
    pcen.require_elements()
    points, functionals = pcen.points, pcen.functionals
    worst = 0.0
    for ax in range(pcen.base.dim):
        if pcen.base.shape[ax] < 2:
            continue
        p1, p2 = _edges(points, ax)
        f1, f2 = _edges(functionals, ax)
        v, w = _orthonormal_pairs(p1, p2)
        r = _member_residuals(p1, f1, v, w) + _member_residuals(p2, f2, v, w)
        worst = max(worst, float(r.max()))
    return worst


def _orthonormal_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """proj4.orthonormal_pair row by row, for nonzero rows."""
    u = a / row_norms(a)
    w = b - u * _vdot_rows(u, b)
    nw = row_norms(w)
    if (nw < 1e-12 * row_norms(b)).any():
        raise GeometryError("degenerate-span: the two vectors are parallel")
    return u, w / nw


def _member_residuals(points: np.ndarray, functionals: np.ndarray,
                      v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Failure of the lines span{v, w} (orthonormal pairs) to be members of
    the pencils: the point's distance from the line (span_residual) plus
    the plane residuals |f @ v| / |v| and |f @ w| / |w|."""
    off_line = points - v * _vdot_rows(v, points) - w * _vdot_rows(w, points)
    return (row_norms(off_line) + _plane_residuals(functionals, v)
            + _plane_residuals(functionals, w))[:, 0]


def _plane_residuals(functionals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ProjPlane.residual row by row: |f @ x| / |x|."""
    return np.abs((functionals * x).sum(axis=-1, keepdims=True)) / row_norms(x)


def pcen_from_complex_cr(S: np.ndarray, base: LatticeNet,
                         side: str = "left") -> PCEN:
    """The alternating contact element net over a complex cross-ratio net.

    Base points are CP^1 parameters on the sphere S.  At vertices of even
    index parity the element is the pencil at the sphere-line lift inside the
    span of its fiber and the j-image line of S; at odd parity the roles of
    the two twistor lifts of the sphere swap.  Adjacent elements intersect in
    half-touching connecting spheres although the base net need not be
    circular.
    """
    if base.kind != "cp1":
        raise GeometryError("complex cross-ratio base must be a cp1 net")
    if side not in ("left", "right"):
        raise GeometryError("side must be 'left' or 'right'")
    base.require_complete()
    p, q = sphere_frame(S)
    x = normalize_rows(base.data[..., :1] * p + base.data[..., 1:] * q)
    odd = ((np.indices(base.shape).sum(axis=0) + (side == "right")) % 2 == 1)[..., None]
    points = np.where(odd, j_on_vector(x), x)
    # the pencil point and the other lift line of S span the plane
    line = np.where(odd[..., None], (p, q), (j_on_vector(p), j_on_vector(q)))
    return PCEN(base, points, span_planes(np.concatenate([points[..., None, :], line], -2)))
