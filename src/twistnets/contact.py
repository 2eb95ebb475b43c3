"""Contact elements as pencils of lines and their nets over a lattice.

A pencil of projective lines through a fixed point inside a fixed plane of
CP^3 maps to a projective line contained in the Pluecker quadric; such a
pencil is a (possibly complex) contact element of the sphere space.  A pencil
containing a twistor fiber represents all spheres mutually touching at one
point of S^4; a pencil with no fiber member is a half-contact element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import proj4
from .proj4 import (
    INCIDENCE_TOL,
    DocumentError,
    GeometryError,
    ProjPlane,
    lines_incident,
    meet_join,
    meet_spans,
    normalize_proj,
    plane_from_span,
    row_norms,
    span_planes,
    span_residual,
    wedge,
)
from .twistor import (
    HPoint,
    j_on_rows,
    j_on_vector,
    lift_rows,
    twistor_fiber,
    twistor_project,
)
from .nets import LatticeNet, sphere_frame
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
        rest = [b[:, i] for i in range(3) if i != k]
        return rest[0], rest[1]

    def member(self, z) -> np.ndarray:
        z = as_ext(z)
        u, v = self.pencil_basis()
        return normalize_proj(wedge(self.point, u * z.num + v * z.den))

    def sample(self, n: int) -> list:
        ts = np.linspace(0.0, 1.0, n, endpoint=False)
        return [self.member(complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
                for t in ts]

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
    if l.plane.contains(j_on_vector(l.point), PENCIL_TOL):
        return twistor_project(l.point)
    return None


def contact_element(p: HPoint, sphere: np.ndarray) -> NullLine:
    """The pencil of spheres touching the given sphere at the point p.

    The pencil point is the lift of p on the sphere's twistor line and the
    plane is spanned by that line together with the fiber of p.
    """
    sphere = normalize_proj(sphere)
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
    (v, vj) meets the element's plane in a single lift point; the line
    joining it to the element's point is the sphere shared by the two
    pencils, and the new element is the pencil at the new lift inside the
    plane span{v, vj, point} of the fiber and the shared line.  Returns the
    new points and functionals, normalized.
    """
    v = np.asarray(lifts, dtype=complex)
    vj = j_on_rows(v)
    try:
        y = meet_spans(functionals, v, vj)
    except GeometryError as exc:
        raise GeometryError(f"fiber-in-plane degeneracy: {exc}") from exc
    # the element's point lies on the fiber over its own base point, and
    # distinct fibers are disjoint: v, vj and that point fail to span a plane
    # only when the next base point coincides with the element's
    try:
        f = span_planes(np.stack([v, vj, np.asarray(points, dtype=complex)], axis=-2))
    except GeometryError as exc:
        raise GeometryError(f"next point coincides with the element's point: {exc}") from exc
    if not (np.abs((f * y).sum(axis=-1)) < PENCIL_TOL).all():
        raise GeometryError("pencil point must lie in the pencil plane")
    return y, f


def shared_sphere(l1: NullLine, l2: NullLine) -> np.ndarray:
    """The unique pencil member common to two adjacent elements."""
    line = normalize_proj(wedge(l1.point, l2.point))
    if not (l1.contains_line(line, 1e-6) and l2.contains_line(line, 1e-6)):
        raise GeometryError("elements do not intersect in a common sphere")
    return line


@dataclass
class PCEN:
    """A principal contact element net over a lattice of base points."""

    base: LatticeNet
    elements: dict = field(default_factory=dict)

    def __getitem__(self, idx):
        return self.elements[tuple(idx)]


def _edges(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows at the two ends of every lattice edge along an axis, stacked
    as (k, 4) arrays."""
    lo = (slice(None),) * axis + (slice(None, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    return a[lo].reshape(-1, 4), a[hi].reshape(-1, 4)


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.conj() * b).sum(axis=-1, keepdims=True)


def _check_distinct_neighbors(lifts: np.ndarray):
    """No two neighbouring base points coincide: HPoint.isclose at 1e-10,
    the distance of one lift from the other's fiber span{v, vj}."""
    shape = lifts.shape[:-1]
    collisions = []
    for ax in range(len(shape)):
        x, v = _edges(lifts, ax)
        vj = j_on_rows(v)
        r = row_norms(x - v * _vdot_rows(v, x) - vj * _vdot_rows(vj, x))[:, 0]
        edge_shape = tuple(n - (k == ax) for k, n in enumerate(shape))
        for flat in np.nonzero(r < 1e-10)[0]:
            idx = tuple(int(i) for i in np.unravel_index(flat, edge_shape))
            collisions.append((idx, ax))
    if collisions:
        idx, ax = min(collisions)
        nxt = tuple(i + (k == ax) for k, i in enumerate(idx))
        raise GeometryError(f"colliding base points at {idx} and {nxt}")


def pcen_from_circular(base: LatticeNet, initial: NullLine) -> PCEN:
    """Propagate an initial contact element over a circular base net.

    Column m = 0 is propagated along n, and every later column from the one
    before it in one propagate_elements call: the element at (m, n) comes
    from (m - 1, n), or from (0, n - 1) when m = 0.  For circular bases the
    two routes agree on every face, which pcen_face_closure verifies.
    """
    if base.kind != "hp1" or base.dim != 2:
        raise GeometryError("circular base must be a 2-dim hp1 net")
    lifts = lift_rows([base[idx] for idx in base.indices()]).reshape(base.shape + (4,))
    _check_distinct_neighbors(lifts)
    rp = null_line_real_point(initial)
    if rp is None or not rp.isclose(base[0, 0], 1e-7):
        raise GeometryError("initial element must be a contact element at the origin")
    points = np.empty_like(lifts)
    functionals = np.empty_like(lifts)
    points[0, 0], functionals[0, 0] = initial.point, initial.plane.functional
    for n in range(1, base.shape[1]):
        points[0, n], functionals[0, n] = propagate_elements(
            points[0, n - 1], functionals[0, n - 1], lifts[0, n])
    for m in range(1, base.shape[0]):
        points[m], functionals[m] = propagate_elements(
            points[m - 1], functionals[m - 1], lifts[m])
    elements = {idx: NullLine(points[idx], ProjPlane(functionals[idx]))
                for idx in base.indices()}
    elements[(0, 0)] = initial
    return PCEN(base, elements)


def _gather(pcen: PCEN) -> tuple[np.ndarray, np.ndarray]:
    """The elements' points and plane functionals, each of shape box + (4,)."""
    points = np.empty(pcen.base.shape + (4,), dtype=complex)
    functionals = np.empty_like(points)
    for idx in pcen.base.indices():
        el = pcen.elements.get(idx)
        if el is None:
            raise DocumentError(f"PCEN has no element at {idx}")
        points[idx] = el.point
        functionals[idx] = el.plane.functional
    return points, functionals


def closure_faces(pcen: PCEN) -> np.ndarray:
    """Which faces pcen_face_closure checks: a boolean array over the faces
    (m, n) -> (m + 1, n + 1) of a 2-dim net, true where the far vertex
    (m + 1, n + 1) has a base point."""
    if pcen.base.kind != "hp1" or pcen.base.dim != 2:
        raise GeometryError("face closure needs a 2-dim hp1 base net")
    m_n, n_n = pcen.base.shape
    return np.array([[(m, n) in pcen.base.values for n in range(1, n_n)]
                     for m in range(1, m_n)], dtype=bool).reshape(m_n - 1, n_n - 1)


def pcen_face_closure(pcen: PCEN) -> float:
    """Largest disagreement between the two propagation routes over a face.

    On each face of closure_faces the element at the far vertex is
    propagated once from each of its two lower neighbours, all faces in one
    propagate_elements call per route; the residual is the larger
    proj_distance of the two points and of the two plane functionals.
    """
    faces = closure_faces(pcen)
    if not faces.any():
        return 0.0
    points, functionals = _gather(pcen)
    lifts = lift_rows([pcen.base.values[(m + 1, n + 1)] for m, n in zip(*np.nonzero(faces))])
    via_m = propagate_elements(points[:-1, 1:][faces], functionals[:-1, 1:][faces], lifts)
    via_n = propagate_elements(points[1:, :-1][faces], functionals[1:, :-1][faces], lifts)
    return float(max(_proj_distances(a, b).max() for a, b in zip(via_m, via_n)))


def _proj_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """proj4.proj_distance row by row."""
    a = a / row_norms(a)
    b = b / row_norms(b)
    ortho = b - a * _vdot_rows(a, b)
    return np.arcsin(np.minimum(1.0, row_norms(ortho)[:, 0]))


def pcen_adjacency_residual(pcen: PCEN) -> float:
    """Largest failure of adjacent elements to share a pencil member.

    For each lattice edge the line joining the two pencil points, spanned by
    an orthonormal pair (v, w), must be a member of both pencils; the
    residual is the sum of _member_residuals over the two ends.  The edges
    along each axis are checked in one pass.
    """
    points, functionals = _gather(pcen)
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
    p, q = sphere_frame(S)
    jp, jq = j_on_vector(p), j_on_vector(q)
    elements = {}
    for idx in base.indices():
        z = as_ext(base[idx])
        x = normalize_proj(p * z.num + q * z.den)
        jx = j_on_vector(x)
        parity = sum(idx) % 2
        if side == "right":
            parity = 1 - parity
        if parity == 0:
            # pencil at the lift on S, plane through the j-image line of S
            elements[tuple(idx)] = NullLine(x, plane_from_span([x, jp, jq]))
        else:
            elements[tuple(idx)] = NullLine(jx, plane_from_span([jx, p, q]))
    return PCEN(base, elements)
