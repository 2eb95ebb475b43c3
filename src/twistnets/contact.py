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

import bisect
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .proj4 import (
    DEFAULT_TOL,
    INCIDENCE_TOL,
    LINE_IN_PLANE,
    DocumentError,
    GeometryError,
    ProjPlane,
    RowError,
    join_matrices,
    lines_incident,
    meet_join,
    normalize_proj,
    normalize_rows,
    orthonormal_pair_rows,
    plane_residual_rows,
    proj_distance_rows,
    row_norms,
    settle_planes,
    span_planes,
    wedge,
)
from .twistor import (
    HPoint,
    coincident_rows,
    j_on_vector,
    twistor_fiber,
    twistor_project,
)
from .nets import LatticeNet, box_cells, first_missing, in_box, sphere_frame


# |f @ x| bound for the unit pencil point x in the plane with functional f
PENCIL_TOL = 1e-7


@dataclass
class NullLine:
    """The pencil of lines through a point inside a plane containing it."""

    point: np.ndarray
    plane: ProjPlane

    def __post_init__(self):
        self.point = normalize_proj(self.point)
        if not self.plane.residual(self.point) < PENCIL_TOL:
            raise GeometryError("pencil point must lie in the pencil plane")


def null_line_real_point(l: NullLine):
    """The unique point of S^4 whose fiber belongs to the pencil, if any.

    The fiber through the pencil point lies in the plane exactly when the
    j-image of the point does; in that case the pencil is a genuine contact
    element and the real member is the fiber over the projected point.
    Returns None for half-contact elements.
    """
    return twistor_project(l.point) if l.plane.residual(j_on_vector(l.point)) < PENCIL_TOL else None


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


def _step(elements: np.ndarray, fibers: np.ndarray, meets: np.ndarray,
          joins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic of a propagation step of contact elements (..., 2, 4),
    unit rows of a point and a functional, onto the fibers of
    fiber_matrices: the new point (f @ meets) @ fibers of the old
    functional f and the new functional y @ joins of the old point y,
    stacked the same way and not unit-scaled, with their row_norms.

    Taken in the fiber's coordinates, the meet is a combination of the
    stored rows v and vj; through the 4x4 line matrix of v ^ vj, one product
    fewer, PCEN closure and adjacency residuals came out about a quarter
    larger.
    """
    new = np.concatenate([(elements[..., 1:, :] @ meets) @ fibers,
                          elements[..., :1, :] @ joins], axis=-2)
    return new, row_norms(new)


def _settle_step(fibers: np.ndarray, points: np.ndarray, functionals: np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """The checks of _step's rows: from the fibers and old points the step
    used, its new functionals and its new points' sizes (..., 1), the new
    functionals as settle_planes settles them, unit-scaled, or a RowError
    for the earlier of the first rows that fail each check, the
    fiber-in-plane check on a tie.

    The checks are those of the scalar constructions: meet_line's
    line-in-plane cut (relative to |v ^ vj| = 1), and span_planes'
    certificate with an SVD for each row it leaves open.  They imply
    NullLine's pencil condition: the plane rule holds the fiber, and so the
    new point, within 1.3e-9 of the new plane.
    """
    in_plane = sizes[..., 0] < DEFAULT_TOL
    first = tuple(np.argwhere(in_plane)[0].tolist()) if in_plane.any() else None
    # the element's point lies on the fiber over its own base point, and
    # distinct fibers are disjoint: v, vj and that point fail to span a plane
    # only when the next base point coincides with the element's
    try:
        functionals = settle_planes(np.concatenate([fibers, points[..., None, :]], axis=-2),
                                    functionals, 3)
    except RowError as exc:
        if first is None or exc.row < first:
            raise RowError(f"next point coincides with the element's point: {exc}",
                           exc.row) from exc
    if first is not None:
        raise RowError(f"fiber-in-plane degeneracy: {LINE_IN_PLANE}", first)
    return functionals


def _propagate(points: np.ndarray, functionals: np.ndarray, fibers: np.ndarray,
               meets: np.ndarray, joins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One checked propagation step of contact elements, unit rows of points
    and functionals: _step, then _settle_step, whose RowError it raises.
    Returns the new rows unit-scaled."""
    new, sizes = _step(np.stack([points, functionals], axis=-2), fibers, meets, joins)
    functional = _settle_step(fibers, points, new[..., 1, :], sizes[..., 0, :])
    return new[..., 0, :] / sizes[..., 0, :], functional


def _adjacency_rows(p1: np.ndarray, f1: np.ndarray,
                    p2: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Row by row, the failure of two elements (unit pencil points p, plane
    functionals f) to share a pencil member, the line through the points:
    the plane residuals, summed over both planes, of the orthonormal pair
    (v, w) of the points, which spans that line."""
    v, w = orthonormal_pair_rows(p1, p2)
    return sum(plane_residual_rows(f, v) + plane_residual_rows(f, w) for f in (f1, f2))


def shared_sphere(l1: NullLine, l2: NullLine) -> np.ndarray:
    """The unique pencil member common to two adjacent elements: the batch
    of one of pcen_adjacency_residual's rule."""
    if _adjacency_rows(l1.point, l1.plane.functional, l2.point, l2.plane.functional) > 1e-6:
        raise GeometryError("elements do not intersect in a common sphere")
    return normalize_proj(wedge(l1.point, l2.point))


class PCEN(Mapping):
    """A principal contact element net over a lattice of base points.

    The element at a vertex of the base's box is a pencil point and a plane
    functional, unit rows of points and functionals (box + (4,)); present
    marks the vertices that have one.  As a mapping (pcen.elements is the
    PCEN itself) it takes each such lattice index to its NullLine, built on
    access.
    """

    def __init__(self, base: LatticeNet, points, functionals, present=None):
        self.base, self._fibers = base, None
        self.present = np.ones(base.shape, dtype=bool) if present is None else present
        on = self.present
        points, functionals = normalize_rows(points[on]), normalize_rows(functionals[on])
        # present rows only: plane_residual_rows would divide by the zero rows of the others
        if not (plane_residual_rows(functionals, points) < PENCIL_TOL).all():
            raise GeometryError("pencil point must lie in the pencil plane")
        self.points, self.functionals = np.zeros((2,) + base.shape + (4,), dtype=complex)
        self.points[on], self.functionals[on] = points, functionals

    @classmethod
    def _settled(cls, base: LatticeNet, elements: np.ndarray, fibers: tuple) -> "PCEN":
        """The PCEN of a complete base from its elements (vertices, 2, 4), a
        point and a functional per vertex in index order, that a checked
        sweep wrote: normalized in one call, and stored without __init__'s
        pencil check, which the sweep's checks imply (_settle_step).  fibers
        are the base's lifts and the sweep's fiber_matrices of them."""
        pcen = cls.__new__(cls)
        pcen.base, pcen.present = base, np.ones(base.shape, dtype=bool)
        pcen._fibers = fibers
        rows = np.moveaxis(normalize_rows(elements), 1, 0)
        pcen.points, pcen.functionals = rows.reshape((2,) + base.shape + (4,))
        return pcen

    @property
    def elements(self) -> "PCEN":
        return self

    def _fiber_matrices(self) -> tuple:
        """fiber_matrices of the base's lifts, flat in index order, made once
        per base: the sweep's, or on first use for a PCEN made otherwise.  A
        write to the base, which gives it new lifts, makes them again."""
        lifts = self.base.lifts()
        if self._fibers is None or self._fibers[0] is not lifts:
            self._fibers = lifts, fiber_matrices(lifts.reshape(-1, 4))
        return self._fibers[1]

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


def _check_distinct_neighbors(lifts: np.ndarray):
    """No two neighbouring base points coincide, by coincident_rows; names
    the first colliding edge of box_cells."""
    bases, axes, corners = box_cells(lifts.shape[:-1], 1)
    close = coincident_rows(*lifts.reshape(-1, 4)[corners.T])
    if close.any():
        edge = int(np.argmax(close))
        idx, ax = tuple(bases[edge].tolist()), int(axes[edge, 0])
        nxt = tuple(i + (k == ax) for k, i in enumerate(idx))
        raise GeometryError(f"colliding base points at {idx} and {nxt}")


def _settle_sweep(elements: np.ndarray, raw: np.ndarray, sizes: np.ndarray,
                  fibers: np.ndarray, source: np.ndarray, starts: list, first: int) -> int:
    """The one check of pcen_from_circular's sweep from slab first on:
    _settle_step over all the rows it wrote, on each row's fiber, its
    source row's point, and the raw functional and point size the sweep
    kept.  Where the check replaced a functional by its plane, the settled
    functionals are written and the slab after the first such row's is
    returned, to sweep again from; else len(starts).  A failing row raises the
    RowError, with its flat row, unless a slab before its own had a plane
    replaced.  Rows past the first fiber in a plane come from it, may be
    NaN, and stay out of the check."""
    lo = starts[first]
    in_plane = np.flatnonzero(sizes[lo:, 0] < DEFAULT_TOL)
    hi = lo + int(in_plane[0]) + 1 if len(in_plane) else len(elements)
    points = elements[source[lo:hi], 0]
    try:
        settled, failure = _settle_step(fibers[lo:hi], points, raw[lo:hi], sizes[lo:hi]), None
    except RowError as exc:
        # the slabs before the failing row's pass the checks
        failure, hi = exc, starts[bisect.bisect_right(starts, lo + exc.row[0]) - 1]
        settled = _settle_step(fibers[lo:hi], points[:hi - lo], raw[lo:hi], sizes[lo:hi])
    # | of the columns, where .any(axis=-1) would reduce row by row
    ne = settled != elements[lo:hi, 1]
    changed = np.flatnonzero(ne[:, 0] | ne[:, 1] | ne[:, 2] | ne[:, 3])
    if len(changed):
        elements[lo:hi, 1] = settled
        return bisect.bisect_right(starts, lo + int(changed[0]))
    if failure is not None:
        failure.row = (lo + failure.row[0],)
        raise failure
    return len(starts)


def pcen_from_circular(base: LatticeNet, initial: NullLine) -> PCEN:
    """Propagate an initial contact element over a circular base net of any
    dimension.

    The axes are walked last first: along axis a, the slab origin[:a] + (k,)
    comes from origin[:a] + (k - 1,) in one step, for k = 1 ... n_a - 1.
    On a 2-dim net that is column m = 0 along n, then every later column
    from the one before it.  In the box's rows, in index order, a slab is a
    run of rows as long as its axis' stride, each from the row one stride
    before it, and the slabs follow each other: the sweep visits the
    vertices in index order.

    The fiber matrices of every base point are built once.  The sweep is
    _step's arithmetic alone, and _settle_sweep checks it once, on the
    quantities it kept.  Where the check replaces an open row's functional
    by its plane, the sweep runs again from the next slab and is checked
    again, so the result is that of one checked step per slab, bit for bit,
    and the checked rows are stored as the PCEN once (PCEN._settled).
    For circular bases the two routes agree on every face, which
    pcen_face_closure verifies.  A failed step names the first vertex it
    fails at, in index order, and the one it propagates from.
    """
    if base.kind != "hp1":
        raise GeometryError("circular base must be an hp1 net")
    base.require_complete()
    lifts = base.lifts()
    _check_distinct_neighbors(lifts)
    origin = (0,) * base.dim
    rp = null_line_real_point(initial)
    if rp is None or not rp.isclose(base[origin], 1e-7):
        raise GeometryError("initial element must be a contact element at the origin")
    matrices = fiber_matrices(lifts.reshape(-1, 4))
    fibers, meets, joins = matrices
    # the box's rows: unit point and functional, and the raw functional and
    # the point size that the check reads
    elements = np.empty(fibers.shape, dtype=complex)
    raw, sizes = np.empty_like(elements[:, 0]), np.empty((len(elements), 1))
    elements[0] = initial.point, initial.plane.functional
    strides = [math.prod(base.shape[a + 1:]) for a in range(base.dim)]
    slabs = [(k * s, s) for a, s in reversed(list(enumerate(strides)))
             for k in range(1, base.shape[a])]
    starts, widths = [start for start, _ in slabs], [s for _, s in slabs]
    # each row's source row, the origin its own
    source = np.arange(len(elements)) - np.repeat([0] + widths, [1] + widths)
    first = 0
    try:
        while first < len(slabs):
            # rows past a failing step may divide by zero: the check stops before them
            with np.errstate(divide="ignore", invalid="ignore"):
                for start, s in slabs[first:]:
                    at, src = slice(start, start + s), slice(start - s, start)
                    new, size = _step(elements[src], fibers[at], meets[at], joins[at])
                    np.divide(new, size, out=elements[at])
                    raw[at], sizes[at] = new[:, 1], size[:, 0]
            first = _settle_sweep(elements, raw, sizes, fibers, source, starts, first)
    except RowError as exc:
        at, src = (tuple(map(int, np.unravel_index(i, base.shape)))
                   for i in (exc.row[0], source[exc.row[0]]))
        raise GeometryError(f"at {at} from {src}: {exc}") from exc
    return PCEN._settled(base, elements, (lifts, matrices))


def closure_faces(pcen: PCEN) -> np.ndarray:
    """Which faces pcen_face_closure checks: a boolean mask over the faces of
    box_cells(shape, 2), true where the far corner (CORNER_STEPS[2]) has a
    base point."""
    if pcen.base.kind != "hp1":
        raise GeometryError("face closure needs an hp1 base net")
    return pcen.base.present.reshape(-1)[box_cells(pcen.base.shape, 2)[2][:, 2]]


def pcen_face_closure(pcen: PCEN) -> float:
    """Largest disagreement between the two propagation routes over a face.

    On each face of closure_faces the element at the far corner is
    propagated once from each of its neighbours on the face, corners 3 and
    1, all faces in one step per route on the far corners' rows of the
    base's fiber matrices (PCEN._fiber_matrices); the residual is the larger
    proj_distance of the two points and of the two plane functionals.
    """
    faces = closure_faces(pcen)
    if not faces.any():
        return 0.0
    pcen.require_elements()
    corners = box_cells(pcen.base.shape, 2)[2][faces].T
    points, functionals = (a.reshape(-1, 4) for a in (pcen.points, pcen.functionals))
    fiber = [m.take(corners[2], axis=0) for m in pcen._fiber_matrices()]
    via_3, via_1 = (_propagate(points[c], functionals[c], *fiber) for c in corners[[3, 1]])
    return float(max(proj_distance_rows(a, b).max() for a, b in zip(via_3, via_1)))


def pcen_adjacency_residual(pcen: PCEN) -> float:
    """Largest failure of adjacent elements to share a pencil member, by
    _adjacency_rows over all edges of box_cells in one pass."""
    pcen.require_elements()
    ends = box_cells(pcen.base.shape, 1)[2].T
    (p1, p2), (f1, f2) = (a.reshape(-1, 4)[ends] for a in (pcen.points, pcen.functionals))
    return float(_adjacency_rows(p1, f1, p2, f2).max(initial=0.0))


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
