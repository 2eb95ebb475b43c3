"""Reduction to three-sphere geometry via a quaternionic hermitian form.

A nondegenerate quaternionic hermitian form on H^2 splits over the complex
numbers as frak_h = h + j omega, with h a complex hermitian form of signature
(2,2) and omega an alternating complex bilinear form.  The null quaternionic
lines of frak_h form a three-sphere inside HP^1, and the induced
perpendicularity map on projective lines of CP^3 is an anti-holomorphic
involution whose real set carries the classical light-cone geometry of
circles in S^3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quat import Quaternion
from . import proj4
from .proj4 import (
    _PAIR_A,
    _PAIR_B,
    _UnitLine,
    DEFAULT_TOL,
    INCIDENCE_TOL,
    RANK_CUT,
    GeometryError,
    QUADRIC_MATRIX,
    normalize_proj,
    nullspace,
    quadric_roots,
    sort_rows,
    svd_rank,
    wedge_rows,
)
from .twistor import (
    HPoint,
    _line_contact,
    fiber_rows,
    is_j_real,
    j_on_bivector,
    quat_matrix,
    twistor_project,
)

# the j-part of conj(x) y is x1 y2 - x2 y1 for x = x1 + j x2, y = y1 + j y2,
# so omega is this row map applied to h: I_2 (x) ((0, 1), (-1, 0))
_OMEGA_OF_H = np.kron(np.eye(2), ((0, 1), (-1, 0)))

DEFAULT_FORM_MATRIX = (
    (Quaternion(0, 0, 0, 0), Quaternion.one()),
    (Quaternion.one(), Quaternion(0, 0, 0, 0)),
)


def _perp_lift(h: np.ndarray) -> np.ndarray:
    """rho_tilde_matrix of the form with h component h: column (a, b) of the
    compound is wedge(h(e_a, .), h(e_b, .)), and QUADRIC_MATRIX is self-inverse."""
    m = QUADRIC_MATRIX @ wedge_rows(h[_PAIR_A], h[_PAIR_B]).T
    m /= np.sqrt(abs(np.linalg.det(h)))
    if np.linalg.norm(m @ m.conj() - np.eye(6)) > 1e-9:
        raise GeometryError("perpendicularity lift does not square to identity")
    return m


@dataclass
class QuatHermitianForm:
    """A quaternionic hermitian form with its complex split h + j omega."""

    qmat: tuple = DEFAULT_FORM_MATRIX
    # the rest is computed from qmat, and forms compare by qmat alone
    hmat: np.ndarray = field(init=False, compare=False)
    # omega(v, w) = omega_vec @ (v ^ w)
    omega_vec: np.ndarray = field(init=False, compare=False)
    # the largest |entry| of hmat: a positive multiple of the form has the
    # same null cone and rho, so every test on it is relative to this
    _scale: float = field(init=False, repr=False, compare=False)
    # omega_vec / _scale, the omega row of circle_to_Q3's system
    _omega_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = quat_matrix(self.qmat)
        self._scale = float(np.abs(h).max())
        if np.linalg.norm(h - h.conj().T) > 1e-12 * self._scale:
            raise GeometryError("h component is not hermitian")
        if svd_rank(h, RANK_CUT)[0] < 4:
            raise GeometryError("degenerate hermitian form")
        self.hmat = h
        self.omega_vec = (_OMEGA_OF_H @ h)[_PAIR_A, _PAIR_B]
        self._omega_row = self.omega_vec / self._scale
        _perp_lift(h)  # its square check refuses some forms past the rank cut

    def is_null_point(self, p: HPoint, tol: float = DEFAULT_TOL) -> bool:
        """True iff p lies on the three-sphere of null lines: |frak_h(v, v)|
        < tol |h|max for the unit lift v.  frak_h(v, v) = h(v, v) + j
        omega(v, v), and omega(v, v) = 0 as omega alternates, so the test is
        |v^H h v|."""
        v = p.lift()
        return abs(v.conj() @ self.hmat @ v) < tol * self._scale


DEFAULT_FORM = QuatHermitianForm()


def rho(l: np.ndarray, form: QuatHermitianForm = DEFAULT_FORM) -> np.ndarray:
    """The h-perpendicular line; an anti-holomorphic involution on lines.

    It is the projective class of the antilinear lift rho_tilde_matrix.
    """
    if not proj4.is_decomposable(l, INCIDENCE_TOL):
        raise GeometryError("bivector is not decomposable")
    return normalize_proj(rho_tilde_matrix(form) @ np.conj(normalize_proj(l)))


def is_lie_real(l: np.ndarray, form: QuatHermitianForm = DEFAULT_FORM,
                tol: float = DEFAULT_TOL) -> bool:
    """True iff l equals its perpendicular: the sphere or point lies in S^3."""
    return proj4.proj_distance(l, rho(l, form)) < tol


def rho_tilde_matrix(form: QuatHermitianForm = DEFAULT_FORM) -> np.ndarray:
    """Matrix M of the antilinear lift of perpendicularity: a -> M conj(a).

    The lift sends v ^ w to the quadric-dual of the wedge of the flats
    h(v, .) and h(w, .), scaled by det(h)^(-1/2) (det(h) > 0, as the
    eigenvalues of h come in pairs); its square is then the identity, so it
    defines a real structure on the space of bivectors.  The form is made
    only when that square is the identity to 1e-9.
    """
    return _perp_lift(form.hmat)


def lie_basis(form: QuatHermitianForm = DEFAULT_FORM) -> np.ndarray:
    """Real basis (rows) of the involution-fixed slice of the bivector space.

    With M = rho_tilde_matrix(form) and a = x + i y, M conj(a) = a reads
    [[Re M - I, Im M], [Im M, -Re M - I]] (x, y) = 0; its real null space
    gives the six rows.  Real linear combinations parameterize the spheres
    and points contained in S^3.
    """
    m = rho_tilde_matrix(form)
    eye = np.eye(6)
    # the matrix is real, and so is the SVD that nullspace takes of it
    xy = nullspace(np.block([[m.real - eye, m.imag], [m.imag, -m.real - eye]])).real
    return (xy[:6] + 1j * xy[6:]).T


def _signature(gram: np.ndarray) -> tuple:
    evals = np.linalg.eigvalsh(gram)
    return int(np.sum(evals > 1e-9)), int(np.sum(evals < -1e-9))


def lie_signature_report(form: QuatHermitianForm = DEFAULT_FORM) -> dict:
    """Signatures of the quadric form on the involution-fixed real span and
    on its circle-space slice cut out by the omega functional."""
    basis = lie_basis(form)
    gram = basis @ QUADRIC_MATRIX @ basis.T
    if np.linalg.norm(gram.imag) > 1e-9:
        raise GeometryError("Gram matrix of the real basis is not real")
    gram = gram.real
    # omega = 0 cuts one real dimension out of the fixed slice
    om = basis @ form.omega_vec
    rank, _, vh = svd_rank(np.vstack([om.real, om.imag]), 1e-10)
    if rank != 1:
        raise GeometryError("omega does not cut a hyperplane of the real slice")
    coeffs = vh[rank:].T  # real 6x5
    return {"basis": _signature(gram), "omega_slice": _signature(coeffs.T @ gram @ coeffs),
            "dimension": len(basis)}


def circle_to_Q3(p1: HPoint, p2: HPoint, p3: HPoint,
                 form: QuatHermitianForm = DEFAULT_FORM):
    """The two oriented-circle representatives of the circle through three
    points of S^3.

    Solves for the quadric points incident to all three fibers and null for
    omega; the result is a pair swapped by the j-action, each a two-sphere
    meeting S^3 along the circle.
    """
    # one lift per point serves the null test, of the real frak_h(v, v) = h(v, v), and the fiber;
    # the test, and the omega row beside the unit fibers, are relative to the form's scale
    lifts = np.array([p.lift() for p in (p1, p2, p3)])
    if not (np.abs(((lifts.conj() @ form.hmat) * lifts).sum(axis=-1)) < 1e-7 * form._scale).all():
        raise GeometryError("point is not on the three-sphere")
    system = np.empty((4, 6), dtype=complex)
    np.matmul(fiber_rows(lifts), QUADRIC_MATRIX, out=system[:3])
    system[3] = form._omega_row
    ns = nullspace(system)
    if ns.shape[1] != 2:
        raise GeometryError("collinear or coincident circle points")
    roots = quadric_roots(ns[:, 0], ns[:, 1])
    if len(roots) != 2:
        raise GeometryError("circle pencil has no two quadric points")
    a, b = sort_rows(roots)
    # the roots are unit, and so is the j-image of one
    if proj4._unit_distance(j_on_bivector(a), b) > 1e-6:
        raise GeometryError("circle representatives are not a j-pair")
    return a, b


@dataclass
class CoinReport:
    """Outcome of the four-coin contact verification."""

    contact_tags: list
    contact_points: list
    sphere: np.ndarray
    sphere_tags: list
    generic: bool


def touching_coins_check(circles, form: QuatHermitianForm = DEFAULT_FORM) -> CoinReport:
    """Verify the coin-chain picture for four cyclically touching circles.

    Each circle is given by one oriented representative (a quadric point);
    consecutive representatives must touch, each after its j-image takes its
    place where only that one touches, and the chain so oriented must span
    four dimensions.  Circle 0 keeps the orientation it is given, so where
    the closing contact, of circles 3 and 0, touches only with circle 0
    reversed, no orientation of the chain touches all round (in one plane:
    an odd number of its tangencies are external), and the chain is
    refused.  The four contact points determine a two-sphere, and that
    sphere half-touches every representative.  When the four contact points
    happen to be concircular no single sphere passes through all of them
    while meeting every representative; the report then falls back to the
    unique two-sphere in contact with all four representatives (the quadric
    points polar to their span) and flags the configuration as non-generic.
    The check reads no form: contact and spheres are incidences on Q^4, so
    form is accepted and ignored.

    Each circle is normalized and its j-image formed once; one contact
    decision settles both orientations of the next circle.  Each
    representative, its j-image and the sphere is one _UnitLine, so the
    sphere's contacts read the line matrices the chain's made.
    """
    circles = [normalize_proj(c) for c in circles]
    if len(circles) != 4:
        raise GeometryError("need exactly four circles")
    # each representative with its j-image, the other orientation
    pairs = [(_UnitLine(c), _UnitLine(j_on_bivector(c))) for c in circles]
    tags, points, oriented = [], [], list(pairs)
    for k in range(4):
        nxt = (k + 1) % 4
        tag, meet, flipped = _line_contact(oriented[k][0], *pairs[nxt], "touch")
        tags.append(tag)
        if tag != "touch":
            raise GeometryError(f"circles {k} and {nxt} do not touch")
        if flipped:
            if nxt == 0:
                raise GeometryError("circles 3 and 0 touch only with circle 0 reversed: "
                                    "the chain's orientation does not close")
            oriented[nxt] = pairs[nxt][::-1]
        points.append(meet[0])
    lines = np.array([c.vec for c, _ in oriented])
    # the rank of the chain as it touches: either representative of a circle
    # is valid input, and the given ones may span fewer dimensions
    if svd_rank(lines, RANK_CUT)[0] < 4:
        raise GeometryError("common-sphere degeneracy: representatives span "
                            "fewer than four dimensions")
    spheres = _polar_spheres(fiber_rows(np.array(points)))
    generic = spheres is not None
    if not generic:
        spheres = _polar_spheres(lines)
    if not spheres:
        raise GeometryError("no sphere in contact with the four circles")
    sphere = _UnitLine(spheres[0])
    # tags only: the report keeps no witness of the sphere's contacts
    sphere_tags = [_line_contact(sphere, *pair)[0] for pair in oriented]
    return CoinReport(tags, [twistor_project(p) for p in points], sphere.vec, sphere_tags,
                      generic)


def _polar_spheres(lines):
    """The spheres incident with four lines, in sort_key order, or None when
    the lines do not span four dimensions.

    The polar of their span is a pencil; its quadric points that are no
    twistor fibers are the spheres.
    """
    pol = nullspace(np.asarray(lines) @ QUADRIC_MATRIX, RANK_CUT)
    if pol.shape[1] != 2:
        return None
    return sort_rows(x for x in quadric_roots(pol[:, 0], pol[:, 1]) if not is_j_real(x, 1e-6))
