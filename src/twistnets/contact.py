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
    GeometryError,
    ProjPlane,
    lines_incident,
    meet_join,
    meet_span,
    normalize_proj,
    orthonormal_pair,
    plane_from_span,
    span_residual,
    wedge,
)
from .twistor import (
    HPoint,
    fiber_pair,
    j_on_vector,
    twistor_fiber,
    twistor_project,
)
from .nets import LatticeNet, sphere_frame
from .xratio import as_ext


@dataclass
class NullLine:
    """The pencil of lines through a point inside a plane containing it."""

    point: np.ndarray
    plane: ProjPlane

    def __post_init__(self):
        self.point = normalize_proj(self.point)
        if not self.plane.contains(self.point, 1e-7):
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
    if l.plane.contains(j_on_vector(l.point), 1e-7):
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
    """The unique adjacent contact element at p_next intersecting l.

    The fiber (v, vj) of p_next meets the plane of l in a single lift point;
    the line joining it to l's point is the sphere shared by the two pencils,
    and the new element is the pencil at the new lift inside the plane
    span{v, vj, l.point} of the fiber and the shared line.
    """
    v, vj = fiber_pair(p_next)
    try:
        y = meet_span(l.plane, v, vj)
    except GeometryError as exc:
        raise GeometryError(f"fiber-in-plane degeneracy: {exc}") from exc
    # l's point lies on the fiber over its own base point, and distinct fibers
    # are disjoint: v, vj and l's point fail to span a plane only when p_next
    # coincides with that base point
    try:
        plane = plane_from_span([v, vj, l.point])
    except GeometryError as exc:
        raise GeometryError(f"next point coincides with the element's point: {exc}") from exc
    return NullLine(y, plane)


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


def _check_distinct_neighbors(base: LatticeNet):
    for idx in base.indices():
        for ax in range(base.dim):
            nxt = list(idx)
            nxt[ax] += 1
            if nxt[ax] >= base.shape[ax]:
                continue
            p, q = base[idx], base[tuple(nxt)]
            if p.isclose(q, 1e-10):
                raise GeometryError(f"colliding base points at {idx} and {tuple(nxt)}")


def pcen_from_circular(base: LatticeNet, initial: NullLine) -> PCEN:
    """Propagate an initial contact element over a circular base net.

    The element at each vertex is obtained by propagation from its left or
    lower neighbor; for circular bases the two routes agree on every face,
    which pcen_face_closure verifies.
    """
    if base.kind != "hp1" or base.dim != 2:
        raise GeometryError("circular base must be a 2-dim hp1 net")
    _check_distinct_neighbors(base)
    rp = null_line_real_point(initial)
    if rp is None or not rp.isclose(base[0, 0], 1e-7):
        raise GeometryError("initial element must be a contact element at the origin")
    elements = {(0, 0): initial}
    m_n, n_n = base.shape
    for m in range(1, m_n):
        elements[(m, 0)] = propagate_element(elements[(m - 1, 0)], base[m, 0])
    for n in range(1, n_n):
        elements[(0, n)] = propagate_element(elements[(0, n - 1)], base[0, n])
        for m in range(1, m_n):
            elements[(m, n)] = propagate_element(elements[(m - 1, n)], base[m, n])
    return PCEN(base, elements)


def pcen_face_closure(pcen: PCEN) -> float:
    """Largest disagreement between the two propagation routes over a face."""
    worst = 0.0
    m_n, n_n = pcen.base.shape
    for m in range(1, m_n):
        for n in range(1, n_n):
            via_m = propagate_element(pcen.elements[(m - 1, n)], pcen.base[m, n])
            via_n = propagate_element(pcen.elements[(m, n - 1)], pcen.base[m, n])
            worst = max(worst,
                        proj4.proj_distance(via_m.point, via_n.point),
                        proj4.proj_distance(via_m.plane.functional,
                                            via_n.plane.functional))
    return worst


def pcen_adjacency_residual(pcen: PCEN) -> float:
    """Largest failure of adjacent elements to share a pencil member."""
    worst = 0.0
    for idx in pcen.base.indices():
        for ax in range(pcen.base.dim):
            nxt = list(idx)
            nxt[ax] += 1
            if nxt[ax] >= pcen.base.shape[ax]:
                continue
            l1 = pcen.elements[tuple(idx)]
            l2 = pcen.elements[tuple(nxt)]
            # orthonormal pair spanning the line joining the two points
            v, w = orthonormal_pair(l1.point, l2.point)
            worst = max(worst,
                        _member_residual(l1, v, w) + _member_residual(l2, v, w))
    return worst


def _member_residual(l: NullLine, v: np.ndarray, w: np.ndarray) -> float:
    """Failure of the line span{v, w} (orthonormal pair) to be a member of l."""
    return (span_residual(l.point, v, w)
            + l.plane.residual(v) + l.plane.residual(w))


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
