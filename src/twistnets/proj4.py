"""Projective linear algebra on C^4 and its exterior square.

Vectors are plain numpy arrays: homogeneous CP^3 points have shape (4,),
Pluecker vectors shape (6,) in the ordered basis

    {e1^e1j, e1^e2, e1^e2j, e1j^e2, e1j^e2j, e2^e2j}

where {e1, e1j, e2, e2j} is the fixed basis of C^4 coming from H^2 via
q = z1 + j z2.  A bivector is decomposable (a line in CP^3, a point of the
four-dimensional quadric) iff its self-pairing under the wedge-product form
vanishes.

Incidences whose rank the construction fixes are closed forms in the
exterior algebra: the plane through three vectors is their ∧³ functional
(the 3x3 minors of the stacked vectors) and, dually, so is the point common
to three planes; a line meets a plane in the point its line matrix assigns
to the plane's functional; two incident lines meet and join in the rank-one
product of the line matrix of one with that of the other's Hodge dual
QUADRIC_MATRIX @ a (meet_join); and a line's orthonormal spanning pair comes
from two columns of its line matrix (line_factorize).  Singular values serve
only inputs whose rank is not known in advance.  Every such rank decision
goes through svd_rank, a cut relative to the largest singular value
(nullspace, orthonormal_span, plane_from_span on nearly dependent vectors,
where the closed form is inaccurate), and four-point planarity through
span_ratios.  The thresholds that several modules share live here.

normalize_rows, wedge_rows, join_matrices, span_planes and span_ratios take
stacks of vectors along the last axis and broadcast over the leading axes;
normalize_rows, wedge_rows and span_planes apply the rules of normalize_proj,
wedge and plane_from_span row by row, and settle_planes is the rank rule of
span_planes on ∧³ functionals computed elsewhere.  The one-vector kernels
stay separate where broadcasting would cost more per call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DEFAULT_TOL = 1e-9
# |<a, a>| and |<a, b>| bound for unit bivectors that should be decomposable
# or incident after a construction
INCIDENCE_TOL = 1e-7
# |a - j(a)| bound below which a unit bivector counts as a twistor fiber
FIBER_TOL = 1e-7
# relative singular-value cut of the rank decisions on constructed vectors:
# meets of lines and planes, the span of a hexahedron, sphere eigenlines
RANK_CUT = 1e-8
# smallest triple volume for which plane_from_span trusts the ∧³ functional
_CLOSED_FORM_VOLUME = 1e-4

# Index pairs (a, b) of the six basis bivectors e_a ^ e_b.
BIVECTOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_A, _PAIR_B = np.array(BIVECTOR_PAIRS).T

# pair(a, b) = a01 b23 - a02 b13 + a03 b12 + a12 b03 - a13 b02 + a23 b01
QUADRIC_MATRIX = np.array(
    [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
    dtype=complex,
)


def _levi_civita() -> np.ndarray:
    """eps[m, 4k + l] = sign of the permutation (i, j, k, l), (i, j) = pair m.

    With p = a ^ b, det[a; b; c; x] = sum_{m,k,l} p_m eps[m, 4k + l] c_k x_l.
    """
    eps = np.zeros((6, 16))
    for m, (i, j) in enumerate(BIVECTOR_PAIRS):
        for k, l in itertools.permutations(sorted({0, 1, 2, 3} - {i, j})):
            perm = (i, j, k, l)
            inversions = sum(perm[s] > perm[t] for s in range(4) for t in range(s + 1, 4))
            eps[m, 4 * k + l] = (-1) ** inversions
    return eps


_EPS = _levi_civita()


class GeometryError(ValueError):
    """Raised when a geometric construction is degenerate."""


class DocumentError(ValueError):
    """Raised when input data is malformed or lacks an entry it needs."""


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _nonzero_norm(v: np.ndarray) -> float:
    """The norm of v by math.hypot, which does not overflow.  A norm under
    1e-12 raises: the one zero cut of normalize_proj and of the scale-free
    tests (proj_distance, lines_incident, ProjPlane.residual)."""
    n = math.hypot(*np.abs(v).tolist())
    if n < 1e-12:
        raise GeometryError("cannot normalize (near-)zero homogeneous vector")
    return n


def normalize_proj(v: np.ndarray) -> np.ndarray:
    """Normalize a homogeneous vector: unit norm, anchor component positive real.

    The phase anchor is the first component whose modulus exceeds 1e-6 of the
    vector's norm, which keeps the anchor stable under perturbation.  The
    anchor of the result is exactly real, so normalizing a normalized vector
    returns it unchanged, bit for bit.
    """
    v = np.asarray(v, dtype=complex)
    n = _nonzero_norm(v)
    mags = np.abs(v)
    anchor = int((mags > 1e-6 * n).argmax())
    a = complex(v[anchor])
    if a.imag == 0.0 and a.real > 0.0 and abs(n - 1.0) < 1e-14:
        return v.copy()
    # dividing twice keeps the phase finite where |a| n overflows
    out = v * (a.conjugate() / mags[anchor] / n)
    out[anchor] = mags[anchor] / n
    return out


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, which is kept with length 1."""
    return np.sqrt((v * v.conj()).real.sum(axis=-1, keepdims=True))


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """normalize_proj along the last axis of a stack of vectors.

    Each row gets the same anchor rule: unit norm, and its first component
    above 1e-6 of the norm exactly real and positive; as there, a row that
    already obeys it is returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    rows = v.reshape(-1, v.shape[-1])
    mags = np.abs(rows)
    # hypot, as math.hypot in normalize_proj: squares of components above
    # about 1e154 would overflow
    n = np.hypot.reduce(mags, axis=1)
    if (n < 1e-12).any():
        raise GeometryError("cannot normalize (near-)zero homogeneous vector")
    k = np.arange(len(rows))
    anchor = (mags > 1e-6 * n[:, None]).argmax(axis=-1)
    a = mags[k, anchor]
    lead = rows[k, anchor]
    # dividing twice keeps the phase finite where |a| n overflows
    out = rows * (lead.conj() / a / n)[:, None]
    out[k, anchor] = a / n
    # rows that are normalized already (anchor real and positive, lead == a)
    # are kept bit for bit
    np.copyto(out, rows, where=((lead == a) & (np.abs(n - 1.0) < 1e-14))[:, None])
    return out.reshape(v.shape)


def proj_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angle metric between projective points given by homogeneous vectors."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    a = a / _nonzero_norm(a)
    b = b / _nonzero_norm(b)
    # the sine of the angle is the size of b's component orthogonal to a,
    # which stays accurate for nearly identical points
    ortho = b - a * np.vdot(a, b)
    return math.asin(min(1.0, _norm(ortho)))


def wedge(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exterior product of two C^4 vectors as a Pluecker 6-vector."""
    v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
    return v[_PAIR_A] * w[_PAIR_B] - v[_PAIR_B] * w[_PAIR_A]


def wedge_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """wedge row by row over leading axes."""
    return v[..., _PAIR_A] * w[..., _PAIR_B] - v[..., _PAIR_B] * w[..., _PAIR_A]


def join_matrices(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ∧³ contraction W (..., 4, 4) of each line span{v, w}, over leading
    axes: for a row vector y, y @ W = det[v; w; y; .] is the ∧³ functional
    of span{v, w, y} (span_functional)."""
    return (wedge_rows(v, w) @ _EPS).reshape(v.shape[:-1] + (4, 4))


def span_functional(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The ∧³ functional f of three C^4 vectors: f @ x = det[a; b; c; x].

    Its entries are the signed 3x3 minors of the stacked vectors; it vanishes
    exactly on span{a, b, c}, and its norm is the volume of the three vectors.
    """
    return np.asarray(c, dtype=complex) @ (wedge(a, b) @ _EPS).reshape(4, 4)


def quadric_pair(a: np.ndarray, b: np.ndarray) -> complex:
    """Symmetric bilinear form induced by the wedge product on bivectors."""
    return complex(np.asarray(a, dtype=complex) @ QUADRIC_MATRIX @ np.asarray(b, dtype=complex))


def is_decomposable(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether a bivector is a line of CP^3: lines_incident(a, a, tol)."""
    return lines_incident(a, a, tol)


def lines_incident(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether the lines of two bivectors meet: |<a, b>| < tol |a| |b|, a
    residual that no scale or phase of a or b changes."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return abs(quadric_pair(a / _nonzero_norm(a), b / _nonzero_norm(b))) < tol


def line_matrix(a: np.ndarray) -> np.ndarray:
    """The antisymmetric 4x4 matrix of a bivector.

    For a decomposable a = v ^ w this is v w^T - w v^T, whose column space is
    span{v, w}; it maps a plane's functional f to the point
    v (f @ w) - w (f @ v) where the line meets the plane.
    """
    a = np.asarray(a, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    m[_PAIR_A, _PAIR_B] = a
    m[_PAIR_B, _PAIR_A] = -a
    return m


def line_factorize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal pair spanning the line of a decomposable bivector.

    Columns i and j of the line matrix lie on the line, and their wedge is
    a_ij a; at the largest |a_ij| they are the best-conditioned such pair.
    Gram-Schmidt makes them orthonormal and normalize_proj fixes each
    vector's phase, so the pair depends on the line alone, and continuously
    away from ties of the largest |a_ij|.
    """
    a = normalize_proj(a)
    if not is_decomposable(a, INCIDENCE_TOL):
        raise GeometryError("bivector is not decomposable")
    i, j = BIVECTOR_PAIRS[int(np.argmax(np.abs(a)))]
    m = line_matrix(a)
    v, w = orthonormal_pair(m[:, i], m[:, j])
    return normalize_proj(v), normalize_proj(w)


def line_point(a: np.ndarray) -> np.ndarray:
    """A point of the line of a decomposable bivector: the largest column of
    its line matrix."""
    m = line_matrix(a)
    return normalize_proj(m[:, int(np.argmax((m.real ** 2 + m.imag ** 2).sum(axis=0)))])


def orthonormal_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal pair spanning span{a, b}, by Gram-Schmidt."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    na, nb = _norm(a), _norm(b)
    if na == 0.0 or nb == 0.0:
        raise GeometryError("degenerate-span: zero vector")
    u = a / na
    w = b - u * np.vdot(u, b)
    nw = _norm(w)
    if nw < 1e-12 * nb:
        raise GeometryError("degenerate-span: the two vectors are parallel")
    return u, w / nw


def span_residual(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> float:
    """Norm of the part of x orthogonal to span{u, w}, for an orthonormal pair."""
    return _norm(x - u * np.vdot(u, x) - w * np.vdot(w, x))


def svd_rank(m: np.ndarray, cut: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Numerical rank of m with its singular values s and right factor vh.

    The rank counts singular values above cut times the largest; rows
    vh[rank:] span the null space, and the rows of m are combinations of
    vh[:rank].  A stack of matrices gives an array of ranks.
    """
    _, s, vh = np.linalg.svd(m)
    rank = np.sum(s > cut * s.max(axis=-1, initial=0.0, keepdims=True), axis=-1)
    return (int(rank) if rank.ndim == 0 else rank), s, vh


def span_ratios(vectors) -> np.ndarray:
    """(s3 / s1, s4 / s1) of four stacked vectors, over leading axes.

    Four unit vectors span at most a plane iff s4 / s1 is zero, and fewer
    than three dimensions iff s3 / s1 is zero too.
    """
    s = np.linalg.svd(np.asarray(vectors), compute_uv=False)
    return s[..., 2:4] / s[..., :1]


def nullspace(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Columns spanning the numerical null space of m, at a cut relative to
    its largest singular value."""
    rank, _, vh = svd_rank(np.asarray(m, dtype=complex), tol)
    return vh[rank:].conj().T


def orthonormal_span(vectors, rank: int | None = None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given row vectors."""
    m = np.array([np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in vectors])
    r, _, vh = svd_rank(m, tol)
    if rank is not None and r != rank:
        raise GeometryError(f"degenerate-span: rank {r}, expected {rank}")
    # rows of m are combinations of rows of vh, so the (plain-linear) span is
    # given by transposing without conjugation
    return vh[:r].T


class ProjPlane:
    """A projective plane in CP^3, stored as its annihilating functional.

    The plane is {x : functional @ x = 0}; the functional is kept normalized.
    """

    def __init__(self, functional: np.ndarray):
        functional = np.asarray(functional, dtype=complex)
        if functional.shape != (4,):
            raise GeometryError("plane functional must have 4 entries")
        self.functional = normalize_proj(functional)

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal spanning columns (4x3), derived from the functional."""
        return nullspace(self.functional.reshape(1, 4))

    def contains(self, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        return self.residual(v) < tol

    def residual(self, v: np.ndarray) -> float:
        """|f @ v| for the unit-scaled v."""
        v = np.asarray(v, dtype=complex)
        return abs(self.functional @ v) / _nonzero_norm(v)


def meet_join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ProjPlane]:
    """The common point and the common plane of two incident, distinct lines.

    The line matrix of the Hodge dual QUADRIC_MATRIX @ a has planes through a
    as columns, and that of b sends each to its meet with b, so for incident
    lines m = line_matrix(b) @ line_matrix(QUADRIC_MATRIX @ a).T = x f^T: the
    meet point x is m's largest column and the join plane f its largest row.
    For unit a, b the singular values of m are the sines of the principal
    angles t1 <= t2 between the lines, and |<a, b>| = sin t1 sin t2.  As in
    the null-space rule tan(t / 2) > RANK_CUT, the lines coincide when
    |m| ~ sin t2 <= 2 RANK_CUT and are skew when |<a, b>| / |m| ~ sin t1 > 2 RANK_CUT.
    """
    a, b = normalize_proj(a), normalize_proj(b)
    if not (is_decomposable(a, INCIDENCE_TOL) and is_decomposable(b, INCIDENCE_TOL)):
        raise GeometryError("bivector is not decomposable")
    m = line_matrix(b) @ line_matrix(QUADRIC_MATRIX @ a).T
    sq = m.real ** 2 + m.imag ** 2
    size = math.sqrt(sq.sum())
    if size <= 2.0 * RANK_CUT:
        raise GeometryError("lines coincide; no unique intersection point")
    if abs(quadric_pair(a, b)) > 2.0 * RANK_CUT * size:
        raise GeometryError("lines are not incident")
    point = normalize_proj(m[:, int(np.argmax(sq.sum(axis=0)))])
    return point, ProjPlane(m[int(np.argmax(sq.sum(axis=1)))])


def line_meet_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection point of two incident, distinct lines in CP^3."""
    return meet_join(a, b)[0]


def plane_from_span(vectors) -> ProjPlane:
    """Plane spanned by vectors of total rank 3 (e.g. a line plus a point).

    The functional is the largest ∧³ functional of a triple of the
    unit-scaled vectors when _certified_span vouches for it, and otherwise
    comes from the singular value decomposition (_svd_plane).
    """
    rows = np.array(vectors, dtype=complex).reshape(-1, 4)
    norms = np.sqrt((rows * rows.conj()).real.sum(axis=1))
    rows = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
    f = max((span_functional(*triple) for triple in itertools.combinations(rows, 3)),
            key=_norm, default=np.zeros(4))
    off = rows @ f
    if not _certified_span(np.vdot(f, f).real, np.vdot(off, off).real,
                           np.count_nonzero(norms)):
        f = _svd_plane(rows)
    return ProjPlane(f)


def span_planes(triples: np.ndarray) -> np.ndarray:
    """plane_from_span on a stack of triples of shape (..., 3, 4).

    Returns the normalized functionals, shape (..., 4).  The rank rule is
    plane_from_span's: the ∧³ functional of each unit-scaled triple where
    _certified_span vouches for it, the SVD of that triple where it does not.
    """
    rows = np.asarray(triples, dtype=complex)
    norms = row_norms(rows)
    rows = rows / np.where(norms > 0.0, norms, 1.0)
    f = (rows[..., 2, None, :] @ join_matrices(rows[..., 0, :], rows[..., 1, :]))[..., 0, :]
    return normalize_rows(settle_planes(rows, f, (norms > 0.0).sum(axis=(-2, -1))))


def settle_planes(rows: np.ndarray, f: np.ndarray, count,
                  failed: dict | None = None) -> np.ndarray:
    """The rank rule of span_planes on the ∧³ functionals f (..., 4) of
    triples of unit-scaled rows (..., 3, 4), count of them nonzero: f is
    kept where _certified_span vouches for it and replaced by the _svd_plane
    of its rows where it does not.  Returns the functionals unit-scaled.

    A row whose rank is not 3 raises _svd_plane's error; with a dict failed,
    it goes into it instead, its index over the leading axes to that error,
    and its functional is zero."""
    off = (rows @ f[..., None])[..., 0]
    vol2 = (f * f.conj()).real.sum(axis=-1, keepdims=True)
    open_ = ~_certified_span(vol2[..., 0], (off * off.conj()).real.sum(axis=-1), count)
    if open_.any():
        f = f.copy()
        for i in np.ndindex(open_.shape):
            if open_[i]:
                try:
                    # _svd_plane's functional is unit
                    f[i], vol2[i] = _svd_plane(rows[i]), 1.0
                except GeometryError as exc:
                    if failed is None:
                        raise
                    failed[i], f[i], vol2[i] = exc, 0.0, 1.0
    return f / np.sqrt(vol2)


def _certified_span(vol2, off2, count):
    """Whether the ∧³ functional f of a triple of unit-scaled rows is
    certified as the plane of all the rows, from vol2 = |f|^2, off2 =
    |rows @ f|^2 and count, the number of nonzero rows; broadcasts.

    The rank test is the singular-value test s3 > DEFAULT_TOL s1 >= s4 of
    the rows.  With V = |f| the triple's volume and e1 = count,
    V^2 > DEFAULT_TOL^2 e1^3 implies s3 > DEFAULT_TOL s1, and
    |rows @ f|^2 <= DEFAULT_TOL^2 V^2 e1 / 4 implies s4 <= DEFAULT_TOL s1.
    f is trusted when both bounds hold and V >= 1e-4: its rounding error is
    about 1e-16 / V, so nearly dependent rows, where a bound is open or f is
    inaccurate, are left to _svd_plane.
    """
    tol2 = DEFAULT_TOL * DEFAULT_TOL
    return ((vol2 >= _CLOSED_FORM_VOLUME ** 2) & (vol2 > tol2 * count ** 3)
            & (off2 <= vol2 * (tol2 / 4 * count)))


def _svd_plane(rows: np.ndarray) -> np.ndarray:
    """The functional of the plane of unit-scaled rows of rank 3, decided and
    fitted by their singular value decomposition."""
    rank, s, vh = svd_rank(rows, DEFAULT_TOL)
    if rank != 3:
        values = ", ".join(f"{x:.1e}" for x in s)
        raise GeometryError(f"degenerate-span: rank {rank}, expected 3; singular "
                            f"values {values} of the unit-scaled vectors, "
                            f"cutoff {DEFAULT_TOL:g} of the largest")
    # rows @ conj(vh[3]) is s4 u4, the smallest the rows allow
    return vh[3].conj()


LINE_IN_PLANE = "line-in-plane: intersection is not a point"


def meet_span(plane: ProjPlane, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Intersection point of a plane and the line span{v, w} not contained in
    it.

    With f the plane's functional the point is v (f @ w) - w (f @ v); the
    line-in-plane test, the one of meet_line, is relative to |v| |w|.
    """
    v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
    f = plane.functional
    x = v * (f @ w) - w * (f @ v)
    if _norm(x) < DEFAULT_TOL * _norm(v) * _norm(w):
        raise GeometryError(LINE_IN_PLANE)
    return normalize_proj(x)


def meet_line(plane: ProjPlane, line: np.ndarray) -> np.ndarray:
    """Intersection point of a plane and a line (Pluecker vector) not contained in it.

    For line = v ^ w the line matrix maps the functional f to the point
    v (f @ w) - w (f @ v), as in meet_span.
    """
    line = np.asarray(line, dtype=complex)
    if not is_decomposable(line, INCIDENCE_TOL):
        raise GeometryError("bivector is not decomposable")
    x = line_matrix(line) @ plane.functional
    if _norm(x) < DEFAULT_TOL * _norm(line):
        raise GeometryError(LINE_IN_PLANE)
    return normalize_proj(x)


def meet_planes(p1: ProjPlane, p2: ProjPlane, p3: ProjPlane) -> np.ndarray:
    """Common point of three planes in general position.

    By duality it is the ∧³ functional of the three unit functionals; its
    norm, their volume, must exceed RANK_CUT.
    """
    x = span_functional(p1.functional, p2.functional, p3.functional)
    if _norm(x) <= RANK_CUT:
        raise GeometryError("planes-near-parallel: three planes share no unique point")
    return normalize_proj(x)


def quadric_roots(g: np.ndarray, h: np.ndarray) -> list:
    """Points of the quadric on the pencil g + t h (plus h itself at t = inf)."""
    a, b, c = quadric_pair(h, h), 2.0 * quadric_pair(g, h), quadric_pair(g, g)
    scale = max(abs(a), abs(b), abs(c), 1e-30)
    roots = []
    if abs(a) < 1e-10 * scale:
        roots.append(None)  # t = infinity: the line h itself
        if abs(b) > 1e-10 * scale:
            roots.append(-c / b)
    else:
        disc = np.sqrt(b * b - 4.0 * a * c + 0j)
        roots.extend([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
    xs = [h if t is None else g + t * h for t in roots]
    return [normalize_proj(x) for x in xs if np.linalg.norm(x) > 1e-12]


def sort_key(x: np.ndarray) -> tuple:
    """A deterministic order on vectors: real, then imaginary parts to 9 digits."""
    return tuple(np.round(np.concatenate([x.real, x.imag]), 9))
