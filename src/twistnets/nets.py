"""Discrete conjugate, conic and circular nets on lattices.

A net stores its values over a finite box in Z^k as one array, and builds
the API value of a vertex (HPoint, ExtC or a vector) on access.  The core
construction is hexahedron completion: seven vertices of a combinatorial
cube with planar faces determine the eighth as the common point of three
planes.  Curve evolution by cross ratio builds two-dimensional nets, the
real quaternionic evolution one anti-diagonal at a time, in memory the
net's size, and the complex one row by row; both name the first degenerate
face in row order.  The lift into the subquadric of lines through a fixed
sphere's two twistor lifts turns complex cross-ratio nets in CP^1 into
conjugate nets with planar faces.

Every face and edge check indexes one table of a box's cells, box_cells,
and a face is one row of it.  A face's planarity residual is looked up: the
first query decomposes the four ambient vectors of every complete face of
the net in one stacked SVD, and the net keeps the ratios, in faces() order,
until its next write.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quat import Quaternion
from . import proj4
from .proj4 import (
    FIBER_TOL,
    INCIDENCE_TOL,
    QUADRIC_MATRIX,
    RANK_CUT,
    GeometryError,
    join_matrices,
    line_meet_point,
    lines_incident,
    normalize_proj,
    normalize_rows,
    orthonormal_span,
    settle_planes,
    span_ratios,
    svd_rank,
    wedge,
    wedge_rows,
)
from .twistor import (
    HPoint,
    coincident_rows,
    is_j_real,
    j_on_vector,
    lift_rows,
    pair_rows,
    quat_pairs,
    real_fiber_rows,
)
from .xratio import (
    REAL_TOL,
    ExtC,
    as_ext,
    check_cross_ratio,
    complex_fourth_step,
    cross_det,
    fourth_points_on_frames,
)


# the shape of one stored value, per kind
_VALUE_SHAPE = {"cp1": (2,), "hp1": (2, 4), "cp3": (4,), "q4": (6,)}

# a cell's corners as steps along its axes: a k-cell's are the first 2^k rows, in k columns
CORNER_STEPS = ((0, 0), (1, 0), (1, 1), (0, 1))


@functools.lru_cache(maxsize=32)
def box_cells(shape: tuple, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (k = 1) or 2-faces (k = 2) of a box, in net.faces() order:
    the bases in index order, and at each base the axis tuples in
    combinations order.  Returns their bases (cells, dim), axes (cells, k)
    and corners (cells, 2^k), the flat indices of each cell's corners in
    CORNER_STEPS order: integer arrays, built once per shape, read-only."""
    dim = len(shape)
    combos = np.array(list(itertools.combinations(range(dim), k)), dtype=int).reshape(-1, k)
    coords = np.indices(shape).reshape(dim, math.prod(shape)).T
    # a base has a cell along the axes where it is not on the box's last layer
    flat, combo = np.nonzero((coords < np.array(shape) - 1)[:, combos].all(axis=-1))
    strides = np.array([math.prod(shape[a + 1:]) for a in range(dim)], dtype=int)
    axes = combos[combo]
    cells = coords[flat], axes, flat[:, None] + strides[axes] @ np.array(CORNER_STEPS)[:2**k, :k].T
    for arr in cells:
        arr.setflags(write=False)
    return cells


@functools.lru_cache(maxsize=32)
def _face_keys(shape: tuple) -> tuple:
    """The 2-faces of box_cells(shape, 2) as (base, axes) tuples of ints, in
    its order: LatticeNet.faces() and the keys of face_ratios(), built once
    per shape."""
    bases, axes, _ = box_cells(shape, 2)
    # zips of the columns make the tuples without a list per face
    return tuple(zip(zip(*bases.T.tolist()), zip(*axes.T.tolist())))


def _all_corners(present: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Which faces of a corner table (faces, 4) have all four corners
    present, as & of its columns: .all(axis=-1) reduces row by row."""
    c = present.reshape(-1)[corners]
    return c[:, 0] & c[:, 1] & c[:, 2] & c[:, 3]


def in_box(idx: tuple, shape: tuple) -> bool:
    """Whether a lattice index lies in the box of the given shape."""
    return len(idx) == len(shape) and all(0 <= i < n for i, n in zip(idx, shape))


def first_missing(present: np.ndarray):
    """The first index, in index order, where the mask present is false, or None."""
    missing = np.argwhere(~present)
    return tuple(missing[0].tolist()) if len(missing) else None


class LatticeNet:
    """Map from lattice indices in a finite box to projective values.

    The box is shape, and the lattice dimension, dim, is its length.  The
    values are one array, data (box + value shape), and present marks the
    vertices that hold one: 'cp1' holds extended complex numbers as pairs
    [num : den], 'hp1' points [a : b] of HP^1 as quaternion pairs (a, b),
    'cp3' C^4 vectors and 'q4' Pluecker 6-vectors.  net[idx] builds the API
    value (ExtC, HPoint or a vector).  net[idx] = v normalizes cp3 and q4
    vectors and drops the net's two caches, lifts() and face_ratios(),
    which a workload reads more than once; ambient() is computed on each
    call.  It is the only writer once the net is read.  A face is a row of
    box_cells(shape, 2), and faces() and face_ratios() follow its order.
    Data given to the constructor fills the whole box; it, and values a
    document loader writes before the first read, are kept verbatim.
    """

    def __init__(self, shape, kind: str, metadata=None, data=None):
        if kind not in _VALUE_SHAPE:
            raise GeometryError(f"unknown net kind {kind!r}")
        self.dim, self.shape, self.kind = len(shape), tuple(shape), kind
        self.metadata = {} if metadata is None else metadata
        self.present = np.full(self.shape, data is not None)
        self.data = np.zeros(self.shape + _VALUE_SHAPE[kind], float if kind == "hp1"
                             else complex) if data is None else data
        self._drop_caches()

    def _drop_caches(self):
        self._lifts = self._face_ratios = None

    def __contains__(self, idx) -> bool:
        idx = tuple(idx)
        return in_box(idx, self.shape) and bool(self.present[idx])

    def __getitem__(self, idx):
        idx = tuple(idx)
        if idx not in self:
            raise GeometryError(f"vertex {idx} missing from net")
        value = self.data[idx]
        if self.kind == "hp1":
            a, b = value.tolist()
            return HPoint(Quaternion(*a), Quaternion(*b))
        return ExtC(*value.tolist()) if self.kind == "cp1" else value.copy()

    def __setitem__(self, idx, value):
        idx = tuple(int(i) for i in idx)
        if not in_box(idx, self.shape):
            raise GeometryError(f"index {idx} outside box {self.shape}")
        if self.kind == "hp1":
            value = quat_pairs([value])[0]
        elif self.kind == "cp1":
            z = as_ext(value)
            value = (z.num, z.den)
        else:
            value = normalize_proj(value)
        self.data[idx], self.present[idx] = value, True
        self._drop_caches()

    def indices(self):
        return itertools.product(*(range(n) for n in self.shape))

    def present_indices(self) -> list:
        """The indices of the vertices that hold a value, in index order."""
        return [tuple(i) for i in np.argwhere(self.present).tolist()]

    def is_complete(self) -> bool:
        return bool(self.present.all())

    def require_complete(self):
        """Raise for the first vertex of the box without a value."""
        if (missing := first_missing(self.present)) is not None:
            raise GeometryError(f"vertex {missing} missing from net")

    def faces(self):
        """All elementary 2-faces, (base index, axis pair), in box_cells
        order: a tuple, built once per shape."""
        return _face_keys(self.shape)

    def lifts(self) -> np.ndarray:
        """The unit C^4 lifts (lift_rows) of an hp1 net's values, box + (4,),
        zero where a vertex has no value.  Cached until the next write."""
        if self.kind != "hp1":
            raise GeometryError(f"{self.kind} nets have no twistor lifts")
        if self._lifts is None:
            self._lifts = np.zeros(self.shape + (4,), dtype=complex)
            self._lifts[self.present] = lift_rows(self.data[self.present])
        return self._lifts

    def ambient(self) -> np.ndarray:
        """The unit vectors the values stand for, box + (n,), zero where a
        vertex has no value: for hp1 the twistor fibers of lifts() as real
        6-vectors, their coordinates in the real section of the Pluecker
        quadric (real_fiber_rows), for cp3 and q4 the normalized values,
        complex.  Computed on each call, from the cached lifts() for hp1; a
        cp1 net's values stand for no ambient vectors."""
        if self.kind == "cp1":
            raise GeometryError("cp1 nets have no ambient planarity notion")
        rows = real_fiber_rows(self.lifts()[self.present]) if self.kind == "hp1" \
            else normalize_rows(self.data[self.present])
        amb = np.zeros(self.shape + rows.shape[-1:], dtype=rows.dtype)
        amb[self.present] = rows
        return amb

    def face_ratios(self) -> dict:
        """(s3 / s1, s4 / s1) of every face's four ambient vectors, keyed by
        face (base, axes) in faces() order, NaN at a face with a missing
        vertex: one stacked SVD over the complete faces, cached until the
        next write.  numpy hands LAPACK each matrix of a stack as it hands
        it a single one, so a face's ratios are those of its own
        decomposition bit for bit."""
        if self._face_ratios is None:
            (_, _, corners), amb = box_cells(self.shape, 2), self.ambient()
            complete = _all_corners(self.present, corners)
            ratios = np.full((len(corners), 2), np.nan)
            # a face with a missing vertex stays out of the decomposition
            ratios[complete] = span_ratios(amb.reshape(-1, amb.shape[-1])[corners[complete]])
            self._face_ratios = dict(zip(self.faces(), zip(*ratios.T.tolist())))
        return self._face_ratios


def require_faces(net: LatticeNet, faces=None):
    """Raise for the first vertex, in CORNER_STEPS order, that the first
    incomplete face of faces misses: by default of net.faces(), found on the
    corner table.  A face's corners are its base with the steps along its
    axes, so a base outside the box is the missing vertex; an axis outside
    the net is refused."""
    if faces is None:
        bases, axes, corners = box_cells(net.shape, 2)
        first = np.flatnonzero(~_all_corners(net.present, corners))[:1]
        faces = zip(bases[first].tolist(), axes[first].tolist())
    for base, axes in faces:
        if tuple(base) in net and not set(axes) <= set(range(net.dim)):
            raise GeometryError(f"axes {tuple(axes)} are not an increasing pair of lattice axes")
        for steps in CORNER_STEPS:
            along = dict(zip(axes, steps))
            corner = tuple(i + along.get(k, 0) for k, i in enumerate(base))
            if corner not in net:
                raise GeometryError(f"vertex {corner} missing from net")


def face_planarity(net: LatticeNet, base, axes) -> float:
    """Deviation of a 2-face from lying in a projective plane: s4 / s1 of
    its four ambient vectors, read from net.face_ratios().

    Zero means the four points span at most a plane.  For hp1 nets the
    vertices are lifted to their twistor fibers first, real 6-vectors in the
    real section of the Pluecker quadric, so the residual measures
    concircularity.  axes is a pair a < b, as in net.faces().
    The first query on a net decomposes all of its faces at once.
    """
    base, axes = tuple(base), tuple(axes)
    if net.kind != "cp1":
        # NaN marks a face with a missing vertex
        s4 = net.face_ratios().get((base, axes), (math.nan, math.nan))[1]
        if not math.isnan(s4):
            return s4
    # names the face's missing vertex, before ambient() refuses a cp1 net
    require_faces(net, [(base, axes)])
    net.ambient()
    raise GeometryError(f"axes {axes} are not an increasing pair of lattice axes")


def face_vectors(net: LatticeNet) -> tuple[list, np.ndarray]:
    """The faces of net.faces() and the ambient vectors of their vertices,
    stacked as (faces, 4, n) in CORNER_STEPS order: real for an hp1 net,
    complex for cp3 and q4 (LatticeNet.ambient).  Raises for the first face
    with a missing vertex, and for a cp1 net with or without faces."""
    require_faces(net)
    # ambient() refuses a cp1 net, also one without faces
    amb = net.ambient()
    return list(net.faces()), amb.reshape(-1, amb.shape[-1])[box_cells(net.shape, 2)[2]]


# ---------------------------------------------------------------------------
# hexahedron completion


def hexahedron_complete(phi, phi1, phi2, phi3, phi12, phi13, phi23) -> np.ndarray:
    """The eighth vertex of a combinatorial cube with planar faces.

    The three planes through {phi_i, phi_ij, phi_ik} meet in a single point;
    the intersection is computed inside the four-dimensional linear span of
    the seven input vectors, so inputs may be C^4 vectors or Pluecker
    6-vectors alike.  The face planes are the ∧³ functionals of the
    unit-scaled coordinate triples and, by duality, their common point is
    that of the three unit plane functionals; settle_planes decides all four.
    """
    # unit points: a scale moves no plane, but its square can overflow
    pts = normalize_rows([phi, phi1, phi2, phi3, phi12, phi13, phi23])
    basis = orthonormal_span(pts, tol=RANK_CUT)
    if basis.shape[1] > 4:
        raise GeometryError("seven points span more than four dimensions; faces are not planar")
    if basis.shape[1] < 4:
        raise GeometryError("seven points span fewer than four dimensions")
    # the basis is orthonormal, so coordinates are inner products, as unit
    # as the points; the faces through phi_i, phi_ij and phi_ik
    faces = (basis.conj().T @ pts.T).T[[[1, 4, 5], [2, 4, 6], [3, 5, 6]]]
    what = "plane through point triple is degenerate"
    try:
        planes = settle_planes(faces, (faces[:, 2, None] @ join_matrices(
            faces[:, 0], faces[:, 1]))[:, 0], 3)
        what = "planes-near-parallel"
        point = settle_planes(planes, planes[2] @ join_matrices(planes[0], planes[1]), 3)
    except GeometryError as exc:
        raise GeometryError(f"{what}: {exc}") from exc
    return normalize_proj(basis @ point)


# ---------------------------------------------------------------------------
# curve evolution


def evolve_complex_cr(curve, seed, lam) -> list:
    """One step of the complex cross-ratio evolution of a curve in CP^1: the
    row from seed, which tests lam once when it has a face."""
    out, curve = [as_ext(seed)], [as_ext(z) for z in curve]
    if len(curve) > 1:
        check_cross_ratio(lam)
        lam = as_ext(lam).value()
    for k in range(len(curve) - 1):
        out.append(complex_fourth_step(curve[k + 1], curve[k], out[k], lam))
    return out


def evolve_net_complex(curve, seeds, lam) -> LatticeNet:
    """Full 2-dim complex cross-ratio net from a curve and a transverse seed
    column c+(0), c++(0), ..., evolved row by row; each row with a face
    tests lam once, and a degenerate step names its row."""
    curve = [as_ext(z) for z in curve]
    if not curve:
        raise GeometryError("complex evolution needs a curve point")
    rows = [curve]
    for r, seed in enumerate(seeds):
        try:
            rows.append(evolve_complex_cr(rows[-1], seed, lam))
        except GeometryError as exc:
            raise GeometryError(f"degenerate step in row {r + 1}: {exc}") from exc
    data = np.array([[(z.num, z.den) for z in row] for row in rows], dtype=complex)
    data = data.reshape(len(rows), len(rows[0]), 2).transpose(1, 0, 2)
    return LatticeNet(data.shape[:2], "cp1", metadata={"lambda": complex(lam)}, data=data)


def evolve_net_circular(curve, seeds, lam: float) -> LatticeNet:
    """Full 2-dim circular net with a constant real cross ratio.

    The vertex (m, n) is the fourth point of the face on (m, n - 1),
    (m - 1, n - 1) and (m - 1, n) at the real cross ratio lam, so its face
    is concircular and each anti-diagonal m + n = d depends only on the two
    before it: one fourth_points_on_frames call on the C^4 lifts, where the
    point at infinity is an ordinary point.

    The lifts live in a store indexed by vertex, the net's size:
    frames[m, n] holds the unit lift of (m, n) and its j-image, each
    computed once, when the vertex is made.  Flattened, the store holds a
    face's p2, p3, p1 and new vertex at k, k + 1, k + N and k + N + 1, and
    the p2 of diagonal d, the vertices (m, d - 2 - m), at d - 2 + m (N - 1):
    one strided slice of four views shifted by those offsets reads the
    diagonal's inputs and writes its vertices.  The boundary is stored as
    given and a computed point as the quaternion pair of its unit lift.

    The diagonals do not test p1 and p2: a face whose two points coincide
    gets the kernel's finite stand-in, and after the last diagonal one
    coincident_rows over every face, on the stored lifts, names the first
    flagged face in row order (n, then m).  The faces before it read only
    faces before it, so it is the face a row-by-row evolution fails on
    first; the faces that read a stand-in come after it.  A lam that
    check_cross_ratio refuses fails the first face, (1, 1), when there is
    one.
    """
    curve, seeds, lam = list(curve), list(seeds), float(lam)
    if not curve:
        raise GeometryError("circular evolution needs a curve point")
    m_n, n_n = len(curve), len(seeds) + 1
    # lifted one by one as HPoint.lift lifts them, as quat_fourth_point does:
    # lift_rows may round differently, and the net keeps the bits of the
    # face-by-face evolution on those lifts
    rows = np.array([p.lift() for p in curve + seeds])
    frames = np.zeros((m_n, n_n, 2, 4), dtype=complex)
    frames[:, 0], frames[0, 1:] = np.split(np.stack([rows, j_on_vector(rows)], axis=-2), [m_n])
    if min(m_n, n_n) > 1:
        try:
            check_cross_ratio(lam)
        except GeometryError as exc:
            why = "degenerate lambda at edge 0" if lam in (0.0, 1.0) else exc
            raise GeometryError(f"degenerate step in row 1: {why}") from exc
        lam_array = np.asarray(lam)
        p2, p3, p1, p4 = (frames.reshape(-1, 2, 4)[k:] for k in (0, 1, n_n, n_n + 1))
        step = n_n - 1
        # a coincident face's frame may be near-singular without making the
        # solve raise: an overflow then raises too, and the kernel solves
        # that face again, so every stored lift is finite
        with np.errstate(over="raise", invalid="raise"):
            for d in range(2, m_n + n_n - 1):
                lo, hi = max(0, d - n_n), min(d, m_n) - 1
                at = slice(d - 2 + lo * step, d - 2 + hi * step, step)
                x = fourth_points_on_frames(
                    np.concatenate([p1[at], p2[at]], axis=-2), p3[at, 0], lam_array)
                p4[at, 0], p4[at, 1] = x, j_on_vector(x)
        # the face (m, n) has p2 at (m - 1, n - 1) and p1 at (m, n - 1)
        coincident = coincident_rows(frames[:-1, :-1, 0], frames[1:, :-1, 0], frames[1:, :-1, 1])
        if (n := np.nonzero(coincident)[1]).size:
            raise GeometryError(f"degenerate step in row {n.min() + 1}: coincident points p1 and p2")
    pairs = pair_rows(frames[..., 0, :])
    pairs[:, 0], pairs[0, 1:] = quat_pairs(curve), quat_pairs(seeds)
    return LatticeNet((m_n, n_n), "hp1", metadata={"lambda": lam}, data=pairs)


# ---------------------------------------------------------------------------
# the subquadric of lines through a sphere's twistor lifts


def sphere_frame(S: np.ndarray):
    """Spanning points p, q of the line S with the parameter convention that
    the CP^1 coordinate z on the sphere corresponds to [p z + q]."""
    if is_j_real(S, FIBER_TOL):
        raise GeometryError("S must be a sphere lift, not a twistor fiber")
    return proj4.line_factorize(S)


def lift_to_QS2(S: np.ndarray, net: LatticeNet, lam=None) -> LatticeNet:
    """Lift a CP^1 net on the sphere S into the subquadric of lines through
    S and its j-image.

    The point at z becomes the line joining the sphere point [p z + q] with
    the j-image point at a second parameter eta.  Without lam, eta is the
    conjugate of z and each point lifts to its twistor fiber (the j-real
    lift); this produces planar faces exactly for real cross ratios.  With
    lam, eta is evolved by the same cross ratio from the conjugated boundary
    data, which makes every face of the lifted net planar for any complex lam.
    """
    if net.kind != "cp1":
        raise GeometryError("lift expects a cp1 net")
    p, q = sphere_frame(S)
    if lam is None:
        lam = net.metadata.get("lambda")
    net.require_complete()
    # the wedge of the lifts has size |z|^2: for pairs in [0.5, 1e100] it stays
    # above the zero cut and a float, and evolved and document pairs are there
    z = proj4._scale_down(net.data, 0.5, 1e100)
    eta = z.conj()
    if lam is not None and abs(complex(lam).imag) > REAL_TOL:
        if net.dim != 2:
            raise GeometryError("complex-lambda lift needs a 2-dim net")
        eta = evolve_net_complex([ExtC(*c) for c in eta[:, 0]],
                                 [ExtC(*c) for c in eta[0, 1:]], lam).data
    x = z[..., :1] * p + z[..., 1:] * q
    y = eta[..., :1] * j_on_vector(p) + eta[..., 1:] * j_on_vector(q)
    return LatticeNet(net.shape, "q4", data=normalize_rows(wedge_rows(x, y)),
                      metadata=dict(net.metadata, sphere=normalize_proj(S)))


def project_from_QS2(S: np.ndarray, net: LatticeNet) -> LatticeNet:
    """Recover the CP^1 parameters of a net of lines through S."""
    if net.kind != "q4":
        raise GeometryError("projection expects a q4 net")
    p, q = sphere_frame(S)
    line = wedge(p, q)
    out = LatticeNet(net.shape, "cp1", metadata=dict(net.metadata))
    for idx in net.indices():
        a = net[idx]
        if not lines_incident(a, line, INCIDENCE_TOL):
            raise GeometryError(f"value at {idx} is not a line through S")
        x = line_meet_point(a, line)
        # sphere_frame's pair is orthonormal: coordinates are inner products
        out[idx] = ExtC(np.vdot(p, x), np.vdot(q, x))
    return out


# ---------------------------------------------------------------------------
# conic nets


@dataclass
class FaceConic:
    """Per-face report: planarity, restricted quadric form, irreducibility,
    and the largest |<a, a>| of the face's unit vertex vectors."""

    base: tuple
    axes: tuple
    planarity: float
    form: np.ndarray | None
    det: complex
    irreducible: bool
    defect: float


def is_conic_net(net: LatticeNet, tol: float = 1e-7) -> list:
    """Per-face conic report for a net with values on the Pluecker quadric.

    One stacked decomposition of the faces' unit vectors gives each face's
    planarity, rank and plane basis; a face is a conic exactly when its four
    vertices span three dimensions at the cut tol.
    """
    if net.kind != "q4":
        raise GeometryError("conic reports need a q4 net")
    faces, vecs = face_vectors(net)
    rank, s, vh = svd_rank(vecs, tol)
    # the quadric form on each plane, in the basis of vh's first three rows
    basis = vh[:, :3]
    forms = basis @ QUADRIC_MATRIX @ basis.transpose(0, 2, 1)
    dets = np.linalg.det(forms)
    return [FaceConic(base, axes, float(resid), g if r == 3 else None, complex(det) if r == 3
                      else 0.0, bool(r == 3 and abs(det) > tol), defect)
            for (base, axes), r, resid, g, det, defect
            in zip(faces, rank, s[:, 3] / s[:, 0], forms, dets, quadric_defects(vecs).tolist())]


def quadric_defects(vecs: np.ndarray) -> np.ndarray:
    """Largest |<a, a>| over the unit vectors a of each stacked face
    (faces, 4, 6): a q4 value off the Pluecker quadric is no line of CP^3."""
    return np.abs((vecs @ QUADRIC_MATRIX * vecs).sum(axis=-1)).max(axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# four-dimensional consistency


def bianchi_check(hypercube: dict) -> bool:
    """Consistency of a combinatorial 4-cube of homogeneous points.

    Requires every elementary 2-face planar and each of the four cubes
    containing the far vertex to complete to the stored far vertex.
    """
    keys = list(itertools.product((0, 1), repeat=4))
    for key in keys:
        if key not in hypercube:
            raise GeometryError(f"hypercube vertex {key} missing")
    cube = np.array([normalize_proj(hypercube[key]) for key in keys]).reshape((2, 2, 2, 2, -1))
    # the 24 faces: the keys in product order are the cube's flat indices
    if (span_ratios(cube.reshape(16, -1)[box_cells((2, 2, 2, 2), 2)[2]])[:, 1] > 1e-7).any():
        return False
    # the four 3-cubes through the far corner must reproduce it
    for fixed in range(4):
        c = np.take(cube, 1, axis=fixed)
        try:
            completed = hexahedron_complete(c[0, 0, 0], c[1, 0, 0], c[0, 1, 0], c[0, 0, 1],
                                            c[1, 1, 0], c[1, 0, 1], c[0, 1, 1])
        except GeometryError:
            return False
        if proj4.proj_distance(completed, c[1, 1, 1]) > 1e-7:
            return False
    return True


# ---------------------------------------------------------------------------
# holonomy of closed curves


def edge_transfer_matrix(z1: ExtC, z2: ExtC, lam: complex) -> np.ndarray:
    """The linear map sending homogeneous c+(k) to c+(k+1) along an edge.

    Derived from the fourth-point formula with z1 = c(k+1), z2 = c(k); the
    determinant is d(z1, z2)^2 (1 - lam) under this normalization.
    """
    a = cross_det(z1, z2)
    return np.array([
        [a - lam * z1.num * z2.den, lam * z1.num * z2.num],
        [-lam * z1.den * z2.den, a + lam * z1.den * z2.num],
    ], dtype=complex)


def holonomy(closed_curve, lam):
    """Holonomy matrix of the cross-ratio evolution around a closed curve.

    The curve is given without repeating the first point; the product runs
    over all n edges including the closing one.  Returns the 2x2 matrix, its
    eigenlines as CP^1 points (seeds whose evolution closes up), and a flag
    for defective (parabolic) holonomy.  Consecutive points that coincide by
    ExtC.isclose, the closing pair included, are refused, as complex_cr
    refuses them: the edge's transfer matrix is singular.
    """
    pts = [as_ext(z) for z in closed_curve]
    if len(pts) >= 2 and pts[0].isclose(pts[-1], 1e-12):
        pts = pts[:-1]
    n = len(pts)
    if n < 3:
        raise GeometryError("closed curve needs at least three distinct points")
    for k in range(n):
        if pts[k].isclose(pts[(k + 1) % n]):
            raise GeometryError(f"coincident points {k} and {(k + 1) % n} on the closed curve")
    check_cross_ratio(lam)
    lam = complex(lam)
    h = np.eye(2, dtype=complex)
    # a product beyond the float range is reported, not handed to eig
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            h = edge_transfer_matrix(pts[(k + 1) % n], pts[k], lam) @ h
    if not np.isfinite(h).all():
        raise GeometryError("holonomy matrix overflows the float range")
    evals, evecs = np.linalg.eig(h)
    lines = [ExtC(evecs[0, k], evecs[1, k]) for k in range(2)]
    parabolic = lines[0].isclose(lines[1], 1e-8)
    return h, lines, parabolic
