"""Discrete conjugate, conic and circular nets on lattices.

A net stores its values over a finite box in Z^k as one array, and builds
the API value of a vertex (HPoint, ExtC or a vector) on access.  The core
construction is hexahedron completion: seven vertices of a combinatorial
cube with planar faces determine the eighth as the common point of three
planes.  Curve evolution by cross ratio builds two-dimensional nets, the
real quaternionic evolution one anti-diagonal at a time and the complex one
row by row, and the lift into the subquadric of lines through a fixed
sphere's two twistor lifts turns complex cross-ratio nets in CP^1 into
conjugate nets with planar faces.

A face's planarity residual is looked up, not computed: the first query
decomposes the four ambient vectors of every complete face of the net in
one stacked SVD, and the net keeps the span ratios until its next write.
"""

from __future__ import annotations

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
    ProjPlane,
    line_meet_point,
    lines_incident,
    meet_planes,
    normalize_proj,
    normalize_rows,
    orthonormal_span,
    span_functional,
    span_ratios,
    svd_rank,
    wedge,
    wedge_rows,
)
from .twistor import (
    HPoint,
    is_j_real,
    j_on_vector,
    lift_fiber_rows,
    lift_rows,
    pair_rows,
    quat_pairs,
)
from .xratio import (
    ExtC,
    as_ext,
    check_real_cross_ratio,
    complex_fourth_point,
    cross_det,
    fourth_points_on_frames,
    quat_fourth_point,
)


# the shape of one stored value, per kind
_VALUE_SHAPE = {"cp1": (2,), "hp1": (2, 4), "cp3": (4,), "q4": (6,)}

# a face's corners as steps along its axis pair, in face_index order
_FACE_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _axis_pairs(dim: int) -> list:
    """The axis pairs (a, b), a < b, of faces, in net.faces() order."""
    return list(itertools.combinations(range(dim), 2))


def _face_corners(arr: np.ndarray, dim: int, a: int, b: int) -> np.ndarray:
    """arr, an array over a box of dimension dim (box + tail), at the four
    corners of every face along the axes a < b, in face_index order: the box
    less one along a and b, then 4, then the tail.  Slices, not index lists."""
    def corner(da, db):
        cut = [slice(None)] * dim
        cut[a] = slice(da, da + arr.shape[a] - 1)
        cut[b] = slice(db, db + arr.shape[b] - 1)
        return arr[tuple(cut)]
    return np.stack([corner(da, db) for da, db in _FACE_CORNERS], axis=dim)


def in_box(idx: tuple, shape: tuple) -> bool:
    """Whether a lattice index lies in the box of the given shape."""
    return len(idx) == len(shape) and all(0 <= i < n for i, n in zip(idx, shape))


def first_missing(present: np.ndarray):
    """The first index, in index order, where the mask present is false, or None."""
    missing = np.argwhere(~present)
    return tuple(missing[0].tolist()) if len(missing) else None


class LatticeNet:
    """Map from lattice indices in a finite box to projective values.

    The values are one array, data (box + value shape), and present marks
    the vertices that hold one: 'cp1' holds extended complex numbers as pairs
    [num : den], 'hp1' points [a : b] of HP^1 as quaternion pairs (a, b),
    'cp3' C^4 vectors and 'q4' Pluecker 6-vectors.  net[idx] builds the API
    value (ExtC, HPoint or a vector).  net[idx] = v normalizes cp3 and q4
    vectors and drops the four caches: the lifts() and ambient() arrays, the
    face_ratios() tables and their planarity_lists(); it is the only writer
    once the net is read.  Data given to the constructor fills the whole
    box; it, and values a document loader writes before the first read, are
    kept verbatim.
    """

    def __init__(self, dim: int, shape, kind: str, metadata=None, data=None):
        if kind not in _VALUE_SHAPE:
            raise GeometryError(f"unknown net kind {kind!r}")
        if len(shape) != dim:
            raise GeometryError("shape length must equal lattice dimension")
        self.dim, self.shape, self.kind = dim, tuple(shape), kind
        self.metadata = {} if metadata is None else metadata
        self.present = np.full(self.shape, data is not None)
        self.data = np.zeros(self.shape + _VALUE_SHAPE[kind], float if kind == "hp1"
                             else complex) if data is None else data
        self._drop_caches()

    def _drop_caches(self):
        self._lifts = self._ambient = self._face_ratios = self._planarity_lists = None

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
        """All elementary 2-faces: (base index, axis pair)."""
        pairs = _axis_pairs(self.dim)
        for idx in self.indices():
            for a, b in pairs:
                if idx[a] + 1 < self.shape[a] and idx[b] + 1 < self.shape[b]:
                    yield idx, (a, b)

    def face_index(self, base, axes) -> tuple:
        """Index lists of a face's four vertices, in the order (0, 0),
        (1, 0), (1, 1), (0, 1) along its axes; raises for a missing one."""
        idx = [[i] * 4 for i in base]
        for ax, steps in zip(axes, ((0, 1, 1, 0), (0, 0, 1, 1))):
            idx[ax] = [base[ax] + d for d in steps]
        corners = list(zip(*idx))
        # the box holds the face when it holds the corners (0, 0) and (1, 1)
        if not (in_box(corners[0], self.shape) and in_box(corners[2], self.shape)
                and all(self.present[c] for c in corners)):
            missing = next(c for c in corners if c not in self)
            raise GeometryError(f"vertex {missing} missing from net")
        return tuple(idx)

    def face_vertices(self, base, axes):
        return [self[corner] for corner in zip(*self.face_index(base, axes))]

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
        """The unit vectors the values stand for, box + (n,): twistor fibers
        of lifts() for hp1, the normalized values for cp3 and q4, zero where
        a vertex has no value.  Cached until the next write."""
        self.require_ambient()
        if self._ambient is None:
            rows = lift_fiber_rows(self.lifts()[self.present]) if self.kind == "hp1" \
                else normalize_rows(self.data[self.present])
            self._ambient = np.zeros(self.shape + rows.shape[-1:], dtype=complex)
            self._ambient[self.present] = rows
        return self._ambient

    def require_ambient(self):
        """Raise for a cp1 net: its values stand for no ambient vectors."""
        if self.kind == "cp1":
            raise GeometryError("cp1 nets have no ambient planarity notion")

    def face_ratios(self) -> dict:
        """The span ratios (s3 / s1, s4 / s1) of every face's four ambient
        vectors, by axis pair (a, b), a < b: an array over the bases of the
        faces along the pair, (box less one along a and b) + (2,), NaN at a
        face with a missing vertex.

        One stacked SVD over the complete faces of all pairs builds the
        tables, which are cached until the next write.  So the first query
        of one face pays for every face, about 3 ms at 24 x 24 against about
        30 us for one face alone, as ambient() lifts every vertex for one
        face.  numpy hands LAPACK each matrix of a stack as it hands it a
        single one, so a face's ratios are those of its own decomposition
        bit for bit.
        """
        if self._face_ratios is None:
            amb, pairs = self.ambient(), _axis_pairs(self.dim)
            complete = [_face_corners(self.present, self.dim, a, b).all(axis=-1)
                        for a, b in pairs]
            # a face with a missing vertex stays out of the decomposition
            vecs = [_face_corners(amb, self.dim, a, b)[c] for (a, b), c in zip(pairs, complete)]
            ratios = span_ratios(np.concatenate(vecs)) if vecs else None
            self._face_ratios, start = {}, 0
            for pair, c in zip(pairs, complete):
                table, stop = np.full(c.shape + (2,), np.nan), start + int(c.sum())
                table[c] = ratios[start:stop]
                self._face_ratios[pair], start = table, stop
            self._planarity_lists = {pair: table[..., 1].tolist()
                                     for pair, table in self._face_ratios.items()}
        return self._face_ratios

    def planarity_lists(self) -> dict:
        """The s4 / s1 column of face_ratios() as nested lists, by axis pair:
        one face's residual is then a few list lookups, not an array index.
        Made with the tables and dropped with them."""
        if self._planarity_lists is None:
            self.face_ratios()
        return self._planarity_lists


def face_planarity(net: LatticeNet, base, axes) -> float:
    """Deviation of a 2-face from lying in a projective plane: s4 / s1 of
    its four ambient vectors, read from net.face_ratios().

    Zero means the four points span at most a plane.  For hp1 nets the
    vertices are lifted to their twistor fibers first, so the residual
    measures concircularity.  axes is a pair a < b, as in net.faces().
    The first query on a net decomposes all of its faces at once.
    """
    base = tuple(base)
    if net.kind != "cp1":
        s4 = net.planarity_lists().get(tuple(axes))
        for i in base:
            s4 = s4[i] if type(s4) is list and 0 <= i < len(s4) else None
        # NaN marks a face with a missing vertex
        if type(s4) is float and not math.isnan(s4):
            return s4
    # names the face's missing vertex, before ambient() refuses a cp1 net
    net.face_index(base, axes)
    net.ambient()
    raise GeometryError(f"axes {tuple(axes)} are not an increasing pair of lattice axes")


def _face_order(net: LatticeNet) -> tuple[list, np.ndarray | None]:
    """net.faces(), and where each face sits among the bases of the axis
    pairs a < b, flattened and concatenated in pair order (None without
    faces); raises for the first face with a missing vertex, and for a cp1
    net without faces."""
    faces = list(net.faces())
    if not faces:
        # ambient() refuses a cp1 net with faces; one without must not pass a
        # report that cannot apply to it
        net.require_ambient()
        return faces, None
    pairs = _axis_pairs(net.dim)
    flat = np.arange(net.present.size).reshape(net.shape)
    # net.faces() runs over the bases in index order, and at each over the pairs
    order = np.argsort(np.concatenate([_face_corners(flat, net.dim, a, b)[..., 0].ravel()
                                       * len(pairs) + p for p, (a, b) in enumerate(pairs)]))
    complete = np.concatenate([_face_corners(net.present, net.dim, a, b).all(axis=-1).ravel()
                               for a, b in pairs])[order]
    if not complete.all():
        net.face_index(*faces[int(np.argmin(complete))])
    return faces, order


def face_vectors(net: LatticeNet) -> tuple[list, np.ndarray]:
    """The faces of net.faces() and the ambient vectors of their vertices,
    stacked as (faces, 4, n) in face_index order; raises for a missing
    vertex."""
    faces, order = _face_order(net)
    if not faces:
        return faces, np.zeros((0, 4, 6), dtype=complex)
    amb = net.ambient()
    return faces, np.concatenate([_face_corners(amb, net.dim, a, b).reshape(-1, 4, amb.shape[-1])
                                  for a, b in _axis_pairs(net.dim)])[order]


def face_span_ratios(net: LatticeNet) -> tuple[list, np.ndarray]:
    """The faces of net.faces() and their net.face_ratios() rows, (faces, 2);
    raises for a missing vertex."""
    faces, order = _face_order(net)
    if not faces:
        return faces, np.zeros((0, 2))
    return faces, np.concatenate([t.reshape(-1, 2) for t in net.face_ratios().values()])[order]


# ---------------------------------------------------------------------------
# hexahedron completion


def _span_coordinates(points):
    """Express homogeneous points in a common 4-dim linear subspace."""
    basis = orthonormal_span(points, tol=RANK_CUT)
    if basis.shape[1] > 4:
        raise GeometryError("seven points span more than four dimensions; "
                            "faces are not planar")
    if basis.shape[1] < 4:
        raise GeometryError("seven points span fewer than four dimensions")
    # the basis is orthonormal, so coordinates are inner products
    pts = np.array(points).T
    coords = basis.conj().T @ pts
    resid = np.linalg.norm(basis @ coords - pts, axis=0)
    if np.any(resid > 1e-7 * np.linalg.norm(pts, axis=0)):
        raise GeometryError("point does not lie in the common span")
    return basis, coords.T


def hexahedron_complete(phi, phi1, phi2, phi3, phi12, phi13, phi23) -> np.ndarray:
    """The eighth vertex of a combinatorial cube with planar faces.

    The three planes through {phi_i, phi_ij, phi_ik} meet in a single point;
    the intersection is computed inside the four-dimensional linear span of
    the seven input vectors, so inputs may be C^4 vectors or Pluecker
    6-vectors alike.  Each plane is the ∧³ functional of its unit-scaled
    triple, whose volume must exceed RANK_CUT.
    """
    pts = [np.asarray(p, dtype=complex) for p in
           (phi, phi1, phi2, phi3, phi12, phi13, phi23)]
    basis, (c0, c1, c2, c3, c12, c13, c23) = _span_coordinates(pts)
    planes = []
    for triple in ((c1, c12, c13), (c2, c12, c23), (c3, c13, c23)):
        f = span_functional(*(c / np.linalg.norm(c) for c in triple))
        if np.linalg.norm(f) <= RANK_CUT:
            raise GeometryError("plane through point triple is degenerate")
        planes.append(ProjPlane(f))
    return normalize_proj(basis @ meet_planes(*planes))


# ---------------------------------------------------------------------------
# curve evolution


def evolve_circular(curve, seed: HPoint, lambdas) -> list:
    """One step of the real cross-ratio evolution of a curve in HP^1.

    Each new point is the unique solution of the face condition
    [p(k+1), p(k), p+(k), p+(k+1)] = lambda_k with real lambda; faces are
    concircular.
    """
    lambdas = [float(lam) for lam in lambdas]
    if len(lambdas) != len(curve) - 1:
        raise GeometryError("need one lambda per curve edge")
    out = [seed]
    for k, lam in enumerate(lambdas):
        if lam in (0.0, 1.0):
            raise GeometryError(f"degenerate lambda at edge {k}")
        out.append(quat_fourth_point(curve[k + 1], curve[k], out[k], Quaternion.from_real(lam)))
    return out


def evolve_complex_cr(curve, seed, lam) -> list:
    """One step of the complex cross-ratio evolution of a curve in CP^1."""
    lam = complex(lam)
    if abs(lam) < 1e-13 or abs(lam - 1.0) < 1e-13:
        raise GeometryError("degenerate lambda")
    out = [as_ext(seed)]
    curve = [as_ext(z) for z in curve]
    for k in range(len(curve) - 1):
        out.append(complex_fourth_point(curve[k + 1], curve[k], out[k], lam))
    return out


def _evolve_rows(first_row, seeds, step, *args) -> list:
    """The rows first_row, step(first_row, seeds[0], *args), ...; a degenerate
    step names its row."""
    rows = [first_row]
    for r, seed in enumerate(seeds):
        try:
            rows.append(step(rows[-1], seed, *args))
        except GeometryError as exc:
            raise GeometryError(f"degenerate step in row {r + 1}: {exc}") from exc
    return rows


def evolve_net_complex(curve, seeds, lam) -> LatticeNet:
    """Full 2-dim complex cross-ratio net from a curve and a transverse seed
    column c+(0), c++(0), ..."""
    curve = [as_ext(z) for z in curve]
    if not curve:
        raise GeometryError("complex evolution needs a curve point")
    rows = _evolve_rows(curve, seeds, evolve_complex_cr, lam)
    data = np.array([[(z.num, z.den) for z in row] for row in rows], dtype=complex)
    data = data.reshape(len(rows), len(rows[0]), 2).transpose(1, 0, 2)
    return LatticeNet(2, data.shape[:2], "cp1", metadata={"lambda": complex(lam)}, data=data)


def evolve_net_circular(curve, seeds, lam: float) -> LatticeNet:
    """Full 2-dim circular net with a constant real cross ratio.

    The vertex (m, n) closes the face on (m, n - 1), (m - 1, n - 1) and
    (m - 1, n), as in evolve_circular, so each anti-diagonal m + n = d
    depends only on the two before it and is one fourth_points_on_frames
    call on the C^4 lifts, where the point at infinity is an ordinary point.

    The lifts live in a diagonal-major store: entry [d, m] is the frame of
    the vertex (m, d - m), its unit lift and that lift's j-image, each
    computed once, when the vertex is made.  Diagonal d reads the frames of
    its p1, p2 and p3 as the slices [d - 1, lo:hi], [d - 2, lo - 1:hi - 1]
    and [d - 1, lo - 1:hi - 1], and its 4 x 4 frames are the first two
    stacked.  The boundary is stored as given and a computed point as the
    quaternion pair of its unit lift.  A degenerate face, or a cross ratio
    within DEFAULT_TOL of 0 or 1 when there is a face, is named as the
    row-by-row evolution names the first one it meets.
    """
    curve, seeds, lam = list(curve), list(seeds), float(lam)
    if not curve:
        raise GeometryError("circular evolution needs a curve point")
    m_n, n_n = len(curve), len(seeds) + 1
    # lifted as evolve_circular lifts them, so that the two agree bit for bit
    rows = np.array([p.lift() for p in curve + seeds])
    frames = np.stack([rows, j_on_vector(rows)], axis=-2)
    store = np.zeros((m_n + n_n - 1, m_n, 2, 4), dtype=complex)
    # (m, 0) sits at [m, m] and (0, n) at [n, 0]
    store[np.arange(m_n), np.arange(m_n)], store[1:n_n, 0] = frames[:m_n], frames[m_n:]
    try:
        if min(m_n, n_n) > 1:
            lam_array = np.asarray(lam)
            check_real_cross_ratio(lam_array)
            for d in range(2, m_n + n_n - 1):
                lo, hi = max(1, d - n_n + 1), min(d, m_n)
                x = fourth_points_on_frames(
                    np.concatenate([store[d - 1, lo:hi], store[d - 2, lo - 1:hi - 1]], axis=-2),
                    store[d - 1, lo - 1:hi - 1, 0], lam_array)
                store[d, lo:hi, 0], store[d, lo:hi, 1] = x, j_on_vector(x)
    except GeometryError:
        _evolve_rows(curve, seeds, evolve_circular, [lam] * (m_n - 1))
        raise
    m, n = np.indices((m_n, n_n))
    pairs = pair_rows(store[m + n, m, 0])
    pairs[:, 0], pairs[0, 1:] = quat_pairs(curve), quat_pairs(seeds)
    return LatticeNet(2, (m_n, n_n), "hp1", metadata={"lambda": lam}, data=pairs)


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
    eta = net.data.conj()
    if lam is not None and abs(complex(lam).imag) >= 1e-13:
        if net.dim != 2:
            raise GeometryError("complex-lambda lift needs a 2-dim net")
        eta = evolve_net_complex([net[m, 0].conj() for m in range(net.shape[0])],
                                 [net[0, n].conj() for n in range(1, net.shape[1])],
                                 lam).data
    x = net.data[..., :1] * p + net.data[..., 1:] * q
    y = eta[..., :1] * j_on_vector(p) + eta[..., 1:] * j_on_vector(q)
    return LatticeNet(net.dim, net.shape, "q4", data=normalize_rows(wedge_rows(x, y)),
                      metadata=dict(net.metadata, sphere=normalize_proj(S)))


def project_from_QS2(S: np.ndarray, net: LatticeNet) -> LatticeNet:
    """Recover the CP^1 parameters of a net of lines through S."""
    if net.kind != "q4":
        raise GeometryError("projection expects a q4 net")
    p, q = sphere_frame(S)
    line = wedge(p, q)
    out = LatticeNet(net.dim, net.shape, "cp1", metadata=dict(net.metadata))
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
    # the 24 faces: along each axis pair, at each setting of the other two
    faces = np.concatenate([_face_corners(cube, 4, a, b).reshape(-1, 4, cube.shape[-1])
                            for a, b in _axis_pairs(4)])
    if (span_ratios(faces)[:, 1] > 1e-7).any():
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
    for defective (parabolic) holonomy.
    """
    pts = [as_ext(z) for z in closed_curve]
    if len(pts) >= 2 and pts[0].isclose(pts[-1], 1e-12):
        pts = pts[:-1]
    n = len(pts)
    if n < 3:
        raise GeometryError("closed curve needs at least three distinct points")
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
