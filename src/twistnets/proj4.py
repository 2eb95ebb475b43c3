"""Projective linear algebra on C^4 and its exterior square.

Vectors are plain numpy arrays: homogeneous CP^3 points have shape (4,),
Pluecker vectors shape (6,) in the ordered basis

    {e1^e1j, e1^e2, e1^e2j, e1j^e2, e1j^e2j, e2^e2j}

where {e1, e1j, e2, e2j} is the fixed basis of C^4 coming from H^2 via
q = z1 + j z2.  A bivector is decomposable (a line in CP^3, a point of the
four-dimensional quadric) iff its self-pairing under the wedge-product form
vanishes.

Incidences whose rank the construction fixes are closed forms in the
exterior algebra: a line meets a plane in the point its line matrix assigns
to the plane's functional; two incident lines meet and join in the rank-one
product of the line matrix of one with that of the other's Hodge dual
QUADRIC_MATRIX @ a (meet_join); and a line's orthonormal spanning pair comes
from two columns of its line matrix (line_factorize).  The plane through
three vectors is their ∧³ functional (the 3x3 minors of the stacked
vectors) and, dually, so is the point common to three planes; one rule,
settle_planes, keeps that functional where it is certified, otherwise
takes the plane from singular values (for inputs of unknown rank only),
and raises a RowError at its first failing row.  Every such rank decision
goes through svd_rank, a cut relative to the largest singular value
(nullspace, orthonormal_span, settle_planes on nearly dependent vectors),
and four-point planarity through span_ratios.  The thresholds that several
modules share live here.

The *_rows rules, join_matrices, span_planes and span_ratios take stacks of
vectors along the last axis, one vector included, and broadcast over the
leading axes.  A one-vector form (normalize_proj, wedge, proj_distance,
orthonormal_pair, ProjPlane.residual) stays beside its *_rows rule only
where broadcasting would cost more on a path that runs it often.  span_planes
is plane_from_span row by row, and settle_planes also decides the planes of
the contact element step and of hexahedron completion.
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
# meets of lines, the span of a hexahedron, sphere eigenlines
RANK_CUT = 1e-8
# smallest triple volume for which settle_planes trusts the ∧³ functional
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
# the antidiagonal of QUADRIC_MATRIX, its only nonzero entries
_QUADRIC_SIGNS = QUADRIC_MATRIX[::-1].diagonal().copy()


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


class RowError(GeometryError):
    """A stacked rule's failure at row, its first failing index in row order."""

    def __init__(self, message: str, row: tuple):
        super().__init__(message)
        self.row = row


# the normalizers keep a vector whose anchor is real and positive and whose
# norm is within 4 eps of 1: their own outputs lie within 3 eps of unit norm
_UNIT_KEEP = 4.0 * np.finfo(float).eps


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _scale_down(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The one range rule: each real or complex vector along the last axis
    whose largest real component lies outside [lo, hi] times the power of
    two that puts it in [0.5, 1), exact for components that stay normal
    floats; every other vector keeps its bits (v is returned if all do)."""
    v = np.ascontiguousarray(v, dtype=complex if np.iscomplexobj(v) else float)
    # numpy reduces a short last axis row by row, several times slower than
    # the first axis of a copy that puts it first
    top = np.abs(np.moveaxis(v.view(float), -1, 0).copy()).max(axis=0)[..., None]
    exp = np.where((top < lo) | (top > hi), -np.frexp(top)[1], 0)
    return np.ldexp(v.view(float), exp).view(v.dtype) if exp.any() else v


def _scaled_norm(v: np.ndarray) -> tuple[np.ndarray, list, float]:
    """v, its moduli and its norm by math.hypot; where that norm overflows
    though every entry of v is finite, v is first scaled down (_scale_down).
    A norm under 1e-12 raises: the one zero cut of normalize_proj and of the
    scale-free tests (proj_distance, lines_incident, ProjPlane.residual)."""
    mags = np.abs(v).tolist()
    n = math.hypot(*mags)
    if n < 1e-12:
        raise GeometryError("cannot normalize (near-)zero homogeneous vector")
    if n == math.inf and np.isfinite(v).all():
        return _scaled_norm(_scale_down(v, 0.0, 1e300))
    return v, mags, n


def normalize_proj(v: np.ndarray) -> np.ndarray:
    """Normalize a homogeneous vector: unit norm, anchor component positive real.

    The phase anchor is the first component whose modulus exceeds 1e-6 of the
    vector's norm, which keeps the anchor stable under perturbation.  The
    anchor of the result is exactly real and its norm within _UNIT_KEEP of 1,
    so normalizing a normalized vector returns it unchanged, bit for bit.  A
    vector of finite entries whose norm overflows is normalized as its
    _scale_down.
    """
    v, mags, n = _scaled_norm(np.asarray(v, dtype=complex))
    cut = 1e-6 * n
    for anchor, m in enumerate(mags):
        if m > cut:
            break
    else:  # a NaN norm: no component passes the cut
        anchor, m = 0, mags[0]
    a = complex(v[anchor])
    if a.imag == 0.0 and a.real > 0.0 and abs(n - 1.0) <= _UNIT_KEEP:
        return v.copy()
    # dividing twice keeps the phase finite where |a| n overflows
    out = v * (a.conjugate() / m / n)
    out[anchor] = m / n
    return out


def _column_chain(op, a: np.ndarray) -> np.ndarray:
    """op.reduce over the last axis of a, as a chain over its columns.  numpy
    reduces a last axis of under 8 entries row by row in this order, so the
    chain gives its bits, on 576 rows of 4 in a third of the time."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = op(out, a[..., k])
    return out


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) bit for bit.  numpy's pairwise sum reads a complex row
    of four as eight doubles and adds their real parts as
    (a0 + a1) + (a2 + a3), the imaginary parts alike; the reduce then adds
    that to its identity 0, which turns a sum of -0.0 into 0.0.  This order
    as a column expression takes 5 µs on 529 rows, where the reduce, which
    runs once per row, takes 21 µs.  Rows of other widths or real rows,
    which numpy adds in other orders, take .sum."""
    if a.shape[-1] != 4 or a.dtype != complex:
        return a.sum(axis=-1)
    return 0.0 + ((a[..., 0] + a[..., 1]) + (a[..., 2] + a[..., 3]))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, which is kept with length 1."""
    return np.sqrt(_column_chain(np.add, (v * v.conj()).real))[..., None]


def _row_hypot(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, moduli, norms) along the last axis, the norms by hypot, as
    math.hypot in normalize_proj: squares of components above about 1e154
    would overflow, and below about 1e-154 underflow.  Only moduli above
    1e300 can take a norm above the largest float, where a row of finite
    entries is scaled (_scale_down) first."""
    mags = np.abs(rows)
    if mags.max(initial=0.0) < 1e300:
        return rows, mags, _column_chain(np.hypot, mags)
    with np.errstate(over="ignore"):
        n = _column_chain(np.hypot, mags)
    huge = (n == np.inf) & np.isfinite(rows).all(axis=-1)
    if np.count_nonzero(huge):
        return _row_hypot(np.where(huge[..., None], _scale_down(rows, 0.0, 1e300), rows))
    return rows, mags, n


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """normalize_proj along the last axis of a stack of vectors.

    Each row gets the same anchor rule: unit norm, and its first component
    above 1e-6 of the norm exactly real and positive; as there, a row that
    already obeys it is returned unchanged, and a row of finite entries whose
    norm overflows is scaled down first.  The rounding may differ: the norm
    is numpy's hypot, chained over the columns, not math.hypot, and on random
    rows about two in three differ from normalize_proj's, each entry by at
    most about 5e-16.
    """
    v = np.asarray(v, dtype=complex)
    rows, mags, n = _row_hypot(v.reshape(-1, v.shape[-1]))
    if np.count_nonzero(n < 1e-12):
        raise GeometryError("cannot normalize (near-)zero homogeneous vector")
    # each row's anchor is its first column past the cut; where that is
    # column 0 in every row, as in evolved lifts, a slice finds it (a NaN
    # norm passes no cut, and argmax takes column 0 for it)
    cut = 1e-6 * n
    if np.count_nonzero(mags[:, 0] > cut) == len(n):
        at = (slice(None), 0)
    else:
        at = (np.arange(len(n)), (mags > cut[:, None]).argmax(axis=-1))
    a, lead = mags[at], rows[at]
    # dividing twice keeps the phase finite where |a| n overflows
    out = rows * (lead.conj() / a / n)[:, None]
    out[at] = a / n
    # rows that are normalized already (anchor real and positive, lead == a,
    # and unit norm) are kept bit for bit
    keep = lead == a
    if np.count_nonzero(keep):
        keep &= np.abs(n - 1.0) <= _UNIT_KEEP
        np.copyto(out, rows, where=keep[:, None])
    return out.reshape(v.shape)


def proj_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angle metric between projective points given by homogeneous vectors."""
    return _unit_distance(_unit(a), _unit(b))


def _unit(v: np.ndarray) -> np.ndarray:
    """v scaled to unit norm, its phase kept; under the 1e-12 zero cut of
    _scaled_norm it raises."""
    v, _, n = _scaled_norm(np.asarray(v, dtype=complex))
    return v / n


def _unit_distance(a: np.ndarray, b: np.ndarray) -> float:
    """proj_distance of unit vectors."""
    # the sine of the angle is the size of b's component orthogonal to a,
    # which stays accurate for nearly identical points
    return math.asin(min(1.0, _norm(b - a * np.vdot(a, b))))


def _vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot row by row; the last axis is kept with length 1."""
    return _row_sums(a.conj() * b)[..., None]


def _ranged_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(a, b) and their row_norms, with the range rule of orthonormal_pair:
    where a norm lies outside (1e-150, 1e150) its square underflowed or
    overflowed, so both stacks are scaled (_scale_down) first, which is
    exact; rows within the window keep their bits."""
    with np.errstate(over="ignore"):
        na, nb = row_norms(a), row_norms(b)
    if not ((1e-150 < na) & (na < 1e150) & (1e-150 < nb) & (nb < 1e150)).all():
        a, b = _scale_down(a, 1e-150, 1e150), _scale_down(b, 1e-150, 1e150)
        na, nb = row_norms(a), row_norms(b)
    return a, b, na, nb


def proj_distance_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """proj_distance row by row over leading axes, for nonzero rows, with
    the range rule of orthonormal_pair_rows."""
    a, b, na, nb = _ranged_rows(a, b)
    a, b = a / na, b / nb
    ortho = b - a * _vdot_rows(a, b)
    return np.arcsin(np.minimum(1.0, row_norms(ortho)[..., 0]))


def wedge(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exterior product of two C^4 vectors as a Pluecker 6-vector."""
    v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
    return v[_PAIR_A] * w[_PAIR_B] - v[_PAIR_B] * w[_PAIR_A]


def wedge_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """wedge row by row over leading axes; one vector takes wedge, whose
    plain indexing costs half as much."""
    if v.ndim == w.ndim == 1:
        return wedge(v, w)
    return v[..., _PAIR_A] * w[..., _PAIR_B] - v[..., _PAIR_B] * w[..., _PAIR_A]


def join_matrices(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ∧³ contraction W (..., 4, 4) of each line span{v, w}, over leading
    axes: for a row vector y, f = y @ W is the ∧³ functional of span{v, w, y},
    f @ x = det[v; w; y; x].  Its entries are the signed 3x3 minors of the
    stacked vectors; it vanishes exactly on their span, and its norm is
    their volume."""
    return (wedge_rows(v, w) @ _EPS).reshape(v.shape[:-1] + (4, 4))


def quadric_pair(a: np.ndarray, b: np.ndarray) -> complex:
    """Symmetric bilinear form induced by the wedge product on bivectors."""
    # a @ QUADRIC_MATRIX is a reversed with signs, and exactly so
    return complex(np.dot(np.asarray(a, dtype=complex)[::-1] * _QUADRIC_SIGNS,
                          np.asarray(b, dtype=complex)))


def is_decomposable(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether a bivector is a line of CP^3: lines_incident(a, a, tol)."""
    return lines_incident(a, a, tol)


def lines_incident(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether the lines of two bivectors meet: |<a, b>| < tol |a| |b|, a
    residual that no scale or phase of a or b changes."""
    return abs(quadric_pair(_unit(a), _unit(b))) < tol


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
    """An orthonormal pair spanning span{a, b}, by Gram-Schmidt; where a norm
    lies outside (1e-150, 1e150) its square would underflow or overflow, so
    the vectors are first scaled (_scale_down), which is exact."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    na, nb = _norm(a), _norm(b)
    if not (1e-150 < na < 1e150 and 1e-150 < nb < 1e150):
        a, b = _scale_down(a, 1e-150, 1e150), _scale_down(b, 1e-150, 1e150)
        na, nb = _norm(a), _norm(b)
    if na == 0.0 or nb == 0.0:
        raise GeometryError("degenerate-span: zero vector")
    u = a / na
    w = b - u * np.vdot(u, b)
    nw = _norm(w)
    if nw < 1e-12 * nb:
        raise GeometryError("degenerate-span: the two vectors are parallel")
    return u, w / nw


def orthonormal_pair_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """orthonormal_pair row by row over leading axes, for nonzero rows, with
    its range rule (_ranged_rows); a parallel row raises its error."""
    a, b, na, nb = _ranged_rows(a, b)
    u = a / na
    w = b - u * _vdot_rows(u, b)
    nw = row_norms(w)
    if (nw < 1e-12 * nb).any():
        raise GeometryError("degenerate-span: the two vectors are parallel")
    return u, w / nw


def span_residual_rows(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Norm of the part of each row x orthogonal to span{u, w}, for
    orthonormal pairs, row by row over leading axes."""
    return row_norms(x - u * _vdot_rows(u, x) - w * _vdot_rows(w, x))[..., 0]


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


def orthonormal_span(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given row vectors; a
    row of norm under 1e-12 raises, as in normalize_proj."""
    m = np.array([_unit(v) for v in vectors])
    r, _, vh = svd_rank(m, tol)
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

    def residual(self, v: np.ndarray) -> float:
        """|f @ v| for the unit-scaled v."""
        v, _, n = _scaled_norm(np.asarray(v, dtype=complex))
        return abs(self.functional @ v) / n


def plane_residual_rows(functionals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ProjPlane.residual row by row over leading axes, for unit functionals
    and nonzero rows x: |f @ x| / |x|."""
    return np.abs(_row_sums(functionals * x)) / row_norms(x)[..., 0]


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
    return _unit_meet_join(normalize_proj(a), normalize_proj(b))


def _unit_meet_join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ProjPlane]:
    """meet_join of unit a and b, which it does not scale again."""
    if not (abs(quadric_pair(a, a)) < INCIDENCE_TOL and abs(quadric_pair(b, b)) < INCIDENCE_TOL):
        raise GeometryError("bivector is not decomposable")
    m = line_matrix(b) @ line_matrix(QUADRIC_MATRIX @ a).T
    sq = (m * m.conj()).real
    cols = sq.sum(axis=0)
    size = math.sqrt(cols.sum())
    if size <= 2.0 * RANK_CUT:
        raise GeometryError("lines coincide; no unique intersection point")
    if abs(quadric_pair(a, b)) > 2.0 * RANK_CUT * size:
        raise GeometryError("lines are not incident")
    point = normalize_proj(m[:, int(cols.argmax())])
    return point, ProjPlane(m[int(sq.sum(axis=1).argmax())])


def line_meet_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection point of two incident, distinct lines in CP^3."""
    return meet_join(a, b)[0]


def plane_from_span(vectors) -> ProjPlane:
    """Plane spanned by vectors of total rank 3 (e.g. a line plus a point).

    The candidate is the largest ∧³ functional of a triple of the
    unit-scaled vectors, which settle_planes keeps or replaces.
    """
    rows, norms = _unit_scaled(np.array(vectors, dtype=complex).reshape(-1, 4))
    f = max((c @ join_matrices(a, b) for a, b, c in itertools.combinations(rows, 3)),
            key=_norm, default=np.zeros(4))
    return ProjPlane(settle_planes(rows, f, np.count_nonzero(norms)))


def span_planes(triples: np.ndarray) -> np.ndarray:
    """plane_from_span on a stack of triples of shape (..., 3, 4).

    Returns the normalized functionals, shape (..., 4), of the ∧³
    functionals of the unit-scaled triples, as settle_planes decides them.
    """
    rows, norms = _unit_scaled(np.asarray(triples, dtype=complex))
    f = (rows[..., 2, None, :] @ join_matrices(rows[..., 0, :], rows[..., 1, :]))[..., 0, :]
    return normalize_rows(settle_planes(rows, f, (norms > 0.0).sum(axis=-1)))


def _unit_scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plane rule's input: rows along the last axis over their norms,
    normalize_rows' (_row_hypot), with zero rows kept zero; and the norms."""
    rows, _, n = _row_hypot(rows)
    return rows / np.where(n > 0.0, n, 1.0)[..., None], n


def settle_planes(rows: np.ndarray, f: np.ndarray, count) -> np.ndarray:
    """The rule of every plane: the ∧³ functionals f (..., 4) of triples of
    unit-scaled rows (..., n, 4), count of them nonzero, are kept where they
    are certified as the plane of all the rows, and replaced by the plane
    that the rows' singular value decomposition decides and fits where they
    are not.  Returns the functionals unit-scaled.

    The rank test is the singular-value test s3 > DEFAULT_TOL s1 >= s4 of
    the rows.  With V = |f| the triple's volume and e1 = count,
    V^2 > DEFAULT_TOL^2 e1^3 implies s3 > DEFAULT_TOL s1, and
    |rows @ f|^2 <= DEFAULT_TOL^2 V^2 e1 / 4 implies s4 <= DEFAULT_TOL s1.
    f is kept when both bounds hold and V >= 1e-4: its rounding error is
    about 1e-16 / V, so nearly dependent rows, where a bound is open or f is
    inaccurate, are left to the decomposition.  The first row in row order
    whose rank is not 3 there raises a RowError with its index over the
    leading axes, its singular values and the cut."""
    off = (rows @ f[..., None])[..., 0]
    # sums of squares, chained over the columns: numpy's order for the rows
    # of 3 and 4 that the library passes
    vol2 = _column_chain(np.add, (f * f.conj()).real)[..., None]
    v2, tol2 = vol2[..., 0], DEFAULT_TOL * DEFAULT_TOL
    open_ = ~((v2 >= _CLOSED_FORM_VOLUME ** 2) & (v2 > tol2 * count ** 3)
              & (_column_chain(np.add, (off * off.conj()).real) <= v2 * (tol2 / 4 * count)))
    if open_.any():
        f = f.copy()
        for i in np.ndindex(open_.shape):
            if not open_[i]:
                continue
            rank, s, vh = svd_rank(rows[i], DEFAULT_TOL)
            if rank != 3:
                values = ", ".join(f"{x:.1e}" for x in s)
                raise RowError(f"degenerate-span: rank {rank}, expected 3; singular "
                               f"values {values} of the unit-scaled vectors, "
                               f"cutoff {DEFAULT_TOL:g} of the largest", i)
            # rows @ conj(vh[3]) is s4 u4, the smallest the rows allow; it is unit
            f[i], vol2[i] = vh[3].conj(), 1.0
    return f / np.sqrt(vol2)


LINE_IN_PLANE = "line-in-plane: intersection is not a point"


def meet_line(plane: ProjPlane, line: np.ndarray) -> np.ndarray:
    """Intersection point of a plane and a line (Pluecker vector) not contained in it.

    For line = v ^ w the line matrix maps the functional f to the point
    v (f @ w) - w (f @ v); the line-in-plane test is relative to |line|.
    """
    line = np.asarray(line, dtype=complex)
    if not is_decomposable(line, INCIDENCE_TOL):
        raise GeometryError("bivector is not decomposable")
    x = line_matrix(line) @ plane.functional
    if _norm(x) < DEFAULT_TOL * _norm(line):
        raise GeometryError(LINE_IN_PLANE)
    return normalize_proj(x)


def quadric_roots(g: np.ndarray, h: np.ndarray) -> list:
    """The unit points x of the pencil g + t h (h itself at t = inf) that lie
    on the quadric, |<x, x>| < INCIDENCE_TOL.

    With <x, x> = a t^2 + b t + c, the cuts are those of the unit-scaled
    pencil, so no scale of g or h moves them: h is a root where
    |a| <= 1e-10 |h|^2, and then -c / b is one where |b| > 1e-10 |g| |h|.
    """
    a, b, c = quadric_pair(h, h), 2.0 * quadric_pair(g, h), quadric_pair(g, g)
    ng, nh = _norm(g), _norm(h)
    roots = []
    if abs(a) <= 1e-10 * nh * nh:
        roots.append(None)  # t = infinity: the line h itself
        if abs(b) > 1e-10 * ng * nh:
            roots.append(-c / b)
    else:
        disc = np.sqrt(b * b - 4.0 * a * c + 0j)
        roots.extend([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
    xs = [h if t is None else g + t * h for t in roots]
    xs = [normalize_proj(x) for x in xs if _norm(x) > 1e-12]
    return [x for x in xs if abs(quadric_pair(x, x)) < INCIDENCE_TOL]


def sort_key(x: np.ndarray) -> tuple:
    """A deterministic order on vectors: real, then imaginary parts to 9 digits."""
    return tuple(np.concatenate((x.real, x.imag)).round(9).tolist())
