"""Discrete conjugate, conic and circular nets on lattices.

A net stores normalized homogeneous vectors over a finite box in Z^k.  The
core construction is hexahedron completion: seven vertices of a combinatorial
cube with planar faces determine the eighth as the common point of three
planes.  Curve evolution by cross ratio (real quaternionic or complex) builds
two-dimensional nets row by row, and the lift into the subquadric of lines
through a fixed sphere's two twistor lifts turns complex cross-ratio nets in
CP^1 into conjugate nets with planar faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .quat import Quaternion
from . import proj4
from .proj4 import (
    FIBER_TOL,
    INCIDENCE_TOL,
    RANK_CUT,
    GeometryError,
    ProjPlane,
    line_meet_point,
    lines_incident,
    meet_planes,
    normalize_proj,
    orthonormal_span,
    planarity,
    quadric_pair,
    span_functional,
    svd_rank,
    wedge,
)
from .twistor import HPoint, is_j_real, j_on_vector, twistor_fiber
from .xratio import (
    ExtC,
    as_ext,
    complex_fourth_point,
    cross_det,
    quat_fourth_point,
)


@dataclass
class LatticeNet:
    """Map from lattice indices in a finite box to projective values.

    kind selects the value type: 'cp1' stores extended complex numbers,
    'hp1' stores quaternionic projective points, 'cp3' stores C^4 vectors and
    'q4' stores Pluecker 6-vectors.
    """

    dim: int
    shape: tuple
    kind: str
    values: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("cp1", "hp1", "cp3", "q4"):
            raise GeometryError(f"unknown net kind {self.kind!r}")
        if len(self.shape) != self.dim:
            raise GeometryError("shape length must equal lattice dimension")

    def __getitem__(self, idx):
        idx = tuple(idx)
        if idx not in self.values:
            raise GeometryError(f"vertex {idx} missing from net")
        return self.values[idx]

    def __setitem__(self, idx, value):
        idx = tuple(int(i) for i in idx)
        for i, n in zip(idx, self.shape):
            if not 0 <= i < n:
                raise GeometryError(f"index {idx} outside box {self.shape}")
        if self.kind in ("cp3", "q4"):
            value = normalize_proj(value)
        self.values[idx] = value

    def indices(self):
        return itertools.product(*(range(n) for n in self.shape))

    def is_complete(self) -> bool:
        return all(tuple(i) in self.values for i in self.indices())

    def faces(self):
        """All elementary 2-faces: (base index, axis pair)."""
        for idx in self.indices():
            for a in range(self.dim):
                for b in range(a + 1, self.dim):
                    if idx[a] + 1 < self.shape[a] and idx[b] + 1 < self.shape[b]:
                        yield idx, (a, b)

    def face_vertices(self, base, axes):
        a, b = axes
        out = []
        for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
            idx = list(base)
            idx[a] += da
            idx[b] += db
            out.append(self[tuple(idx)])
        return out


def _face_vectors(net: LatticeNet, base, axes) -> list:
    vals = net.face_vertices(base, axes)
    if net.kind == "hp1":
        return [twistor_fiber(p) for p in vals]
    if net.kind == "cp1":
        raise GeometryError("cp1 nets have no ambient planarity notion")
    return [normalize_proj(v) for v in vals]


def face_planarity(net: LatticeNet, base, axes) -> float:
    """Deviation of a 2-face from lying in a projective plane.

    Returns the smallest singular value of the stacked normalized vertex
    vectors; zero means the four points span at most a plane.  For hp1 nets
    the vertices are lifted to their twistor fibers first, so the residual
    measures concircularity.
    """
    return planarity(_face_vectors(net, base, axes))


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
    lambdas = list(lambdas)
    if len(lambdas) != len(curve) - 1:
        raise GeometryError("need one lambda per curve edge")
    out = [seed]
    for k, lam in enumerate(lambdas):
        lam = float(lam)
        if lam in (0.0, 1.0):
            raise GeometryError(f"degenerate lambda at edge {k}")
        nxt = quat_fourth_point(curve[k + 1], curve[k], out[k],
                                Quaternion.from_real(lam))
        out.append(nxt)
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


def net_from_rows(rows, kind: str, metadata=None) -> LatticeNet:
    """A 2-dim net from a list of rows (index order: net[m, n] = rows[n][m])."""
    width = len(rows[0])
    net = LatticeNet(2, (width, len(rows)), kind, metadata=metadata or {})
    for n, row in enumerate(rows):
        if len(row) != width:
            raise GeometryError("ragged rows")
        for m, v in enumerate(row):
            if kind in ("cp3", "q4"):
                net[m, n] = v
            else:
                net.values[(m, n)] = v
    return net


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
    rows = _evolve_rows([as_ext(z) for z in curve], seeds, evolve_complex_cr, lam)
    return net_from_rows(rows, "cp1", metadata={"lambda": complex(lam)})


def evolve_net_circular(curve, seeds, lam: float) -> LatticeNet:
    """Full 2-dim circular net with a constant real cross ratio."""
    rows = _evolve_rows(list(curve), seeds, evolve_circular,
                        [float(lam)] * (len(curve) - 1))
    return net_from_rows(rows, "hp1", metadata={"lambda": float(lam)})


# ---------------------------------------------------------------------------
# the subquadric of lines through a sphere's twistor lifts


def sphere_frame(S: np.ndarray):
    """Spanning points p, q of the line S with the parameter convention that
    the CP^1 coordinate z on the sphere corresponds to [p z + q]."""
    S = normalize_proj(S)
    if is_j_real(S, FIBER_TOL):
        raise GeometryError("S must be a sphere lift, not a twistor fiber")
    p, q = proj4.line_factorize(S)
    return p, q


def sphere_point(S_or_frame, z) -> np.ndarray:
    """The C^4 lift of the sphere point with parameter z."""
    p, q = S_or_frame if isinstance(S_or_frame, tuple) else sphere_frame(S_or_frame)
    z = as_ext(z)
    return normalize_proj(p * z.num + q * z.den)


def qs2_point(S_or_frame, z, eta) -> np.ndarray:
    """The line joining the sphere point at z with the j-image point at eta.

    Points with eta = conj(z) are the twistor fibers of sphere points; all
    outputs are incident to both S and its j-image.
    """
    p, q = S_or_frame if isinstance(S_or_frame, tuple) else sphere_frame(S_or_frame)
    z = as_ext(z)
    eta = as_ext(eta)
    x = p * z.num + q * z.den
    y = j_on_vector(p) * eta.num + j_on_vector(q) * eta.den
    return normalize_proj(wedge(x, y))


def lift_to_QS2(S: np.ndarray, net: LatticeNet, lam=None) -> LatticeNet:
    """Lift a CP^1 net on the sphere S into the subquadric of lines through
    S and its j-image.

    Without lam each point lifts to its twistor fiber (the j-real lift); this
    produces planar faces exactly for real cross ratios.  With lam the second
    conic coordinate is evolved by the same cross ratio from the conjugated
    boundary data, which makes every face of the lifted net planar for any
    complex lam.
    """
    if net.kind != "cp1":
        raise GeometryError("lift expects a cp1 net")
    frame = sphere_frame(S)
    if lam is None:
        lam = net.metadata.get("lambda")
    out = LatticeNet(net.dim, net.shape, "q4",
                     metadata=dict(net.metadata, sphere=normalize_proj(S)))
    if lam is None or (abs(complex(lam).imag) < 1e-13):
        for idx in net.indices():
            z = net[idx]
            out[idx] = qs2_point(frame, z, z.conj())
        return out
    if net.dim != 2:
        raise GeometryError("complex-lambda lift needs a 2-dim net")
    lam = complex(lam)
    m_n, n_n = net.shape
    eta = {}
    for m in range(m_n):
        eta[(m, 0)] = net[m, 0].conj()
    for n in range(n_n):
        eta[(0, n)] = net[0, n].conj()
    for n in range(1, n_n):
        for m in range(1, m_n):
            eta[(m, n)] = complex_fourth_point(
                eta[(m, n - 1)], eta[(m - 1, n - 1)], eta[(m - 1, n)], lam)
    for idx in net.indices():
        out[idx] = qs2_point(frame, net[idx], eta[idx])
    return out


def project_from_QS2(S: np.ndarray, net: LatticeNet) -> LatticeNet:
    """Recover the CP^1 parameters of a net of lines through S."""
    if net.kind != "q4":
        raise GeometryError("projection expects a q4 net")
    p, q = sphere_frame(S)
    line = normalize_proj(wedge(p, q))
    out = LatticeNet(net.dim, net.shape, "cp1", metadata=dict(net.metadata))
    for idx in net.indices():
        a = net[idx]
        if not lines_incident(a, line, INCIDENCE_TOL):
            raise GeometryError(f"value at {idx} is not a line through S")
        x = line_meet_point(a, line)
        # sphere_frame's pair is orthonormal: coordinates are inner products
        out.values[idx] = ExtC(np.vdot(p, x), np.vdot(q, x))
    return out


# ---------------------------------------------------------------------------
# conic nets


@dataclass
class FaceConic:
    """Per-face report: plane basis, restricted quadric form, irreducibility."""

    base: tuple
    axes: tuple
    planarity: float
    form: np.ndarray | None
    det: complex
    irreducible: bool


def is_conic_net(net: LatticeNet, tol: float = 1e-7) -> list:
    """Per-face conic report for a net with values on the Pluecker quadric."""
    if net.kind != "q4":
        raise GeometryError("conic reports need a q4 net")
    reports = []
    for base, axes in net.faces():
        vecs = np.array([normalize_proj(v) for v in net.face_vertices(base, axes)])
        # one decomposition gives the planarity, the rank and the plane's
        # basis; a face is a conic exactly when its four vertices span three
        # dimensions at the cut tol
        rank, s, vh = svd_rank(vecs, tol)
        resid = float(s[3] / s[0])
        if rank != 3:
            reports.append(FaceConic(base, axes, resid, None, 0.0, False))
            continue
        basis = vh[:3].T
        g = np.array([[quadric_pair(basis[:, i], basis[:, j])
                       for j in range(3)] for i in range(3)])
        det = complex(np.linalg.det(g))
        reports.append(FaceConic(base, axes, resid, g, det, abs(det) > tol))
    return reports


# ---------------------------------------------------------------------------
# four-dimensional consistency


def bianchi_check(hypercube: dict) -> bool:
    """Consistency of a combinatorial 4-cube of homogeneous points.

    Requires every elementary 2-face planar and each of the four cubes
    containing the far vertex to complete to the stored far vertex.
    """
    for key in itertools.product((0, 1), repeat=4):
        if key not in hypercube:
            raise GeometryError(f"hypercube vertex {key} missing")
    # planarity of all 24 faces
    for a in range(4):
        for b in range(a + 1, 4):
            rest = [c for c in range(4) if c not in (a, b)]
            for va in (0, 1):
                for vb in (0, 1):
                    quad = []
                    for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        idx = [0, 0, 0, 0]
                        idx[a], idx[b] = da, db
                        idx[rest[0]], idx[rest[1]] = va, vb
                        quad.append(normalize_proj(hypercube[tuple(idx)]))
                    if planarity(quad) > 1e-7:
                        return False
    # the four 3-cubes through the far corner must reproduce it
    far = normalize_proj(hypercube[(1, 1, 1, 1)])
    for fixed in range(4):
        axes = [a for a in range(4) if a != fixed]

        def vertex(bits):
            idx = [0, 0, 0, 0]
            idx[fixed] = 1
            for ax, bit in zip(axes, bits):
                idx[ax] = bit
            return hypercube[tuple(idx)]

        try:
            completed = hexahedron_complete(
                vertex((0, 0, 0)),
                vertex((1, 0, 0)), vertex((0, 1, 0)), vertex((0, 0, 1)),
                vertex((1, 1, 0)), vertex((1, 0, 1)), vertex((0, 1, 1)))
        except GeometryError:
            return False
        if proj4.proj_distance(completed, far) > 1e-7:
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
    for k in range(n):
        z2 = pts[k]
        z1 = pts[(k + 1) % n]
        h = edge_transfer_matrix(z1, z2, lam) @ h
    evals, evecs = np.linalg.eig(h)
    lines = [ExtC(evecs[0, k], evecs[1, k]) for k in range(2)]
    parabolic = lines[0].isclose(lines[1], 1e-8)
    return h, lines, parabolic
