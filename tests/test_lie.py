import numpy as np
import pytest

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    lines_incident,
    normalize_proj,
    proj_distance,
    quadric_pair,
    wedge,
)
from twistnets.twistor import HPoint, j_on_bivector, j_on_vector, twistor_fiber, twistor_project
from twistnets.lie import (
    _OMEGA_OF_H,
    QuatHermitianForm,
    circle_to_Q3,
    is_lie_real,
    lie_basis,
    lie_signature_report,
    rho,
    rho_tilde_matrix,
    touching_coins_check,
)


FORM = QuatHermitianForm()


def _indefinite_forms():
    """The default form, diag(1, -1) and three seeded random indefinite
    forms ((r1, q), (conj q, r2)) with r1 r2 < |q|^2."""
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    forms = [FORM, QuatHermitianForm(((Quaternion.from_real(1.0), zero),
                                      (zero, Quaternion.from_real(-1.0))))]
    rng = np.random.default_rng(17)
    while len(forms) < 5:
        q = Quaternion(*rng.standard_normal(4))
        r1, r2 = rng.standard_normal(2)
        if r1 * r2 < q.norm() ** 2 - 0.1:
            forms.append(QuatHermitianForm(((Quaternion.from_real(r1), q),
                                            (q.conjugate(), Quaternion.from_real(r2)))))
    return forms


INDEFINITE_FORMS = pytest.mark.parametrize(
    "form", _indefinite_forms(), ids=["default", "diag(1,-1)", "random0", "random1", "random2"])


# ---------------------------------------------------------------------------
# the form and its complex split


def test_form_split_identities():
    rng = np.random.default_rng(0)
    for _ in range(30):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h_vw = v.conj() @ FORM.hmat @ w
        # h is hermitian: h(w, v) = conj h(v, w)
        assert abs(w.conj() @ FORM.hmat @ v - h_vw.conjugate()) < 1e-10
        # omega is the j-part and pairs v with the j-image of w
        h_vwj = v.conj() @ FORM.hmat @ j_on_vector(w)
        assert abs(h_vwj.conjugate() + FORM.omega_vec @ wedge(v, w)) < 1e-10


def test_forms_compare_by_their_quaternionic_matrix():
    """Two forms are equal when their qmat is, and == answers a bool: the
    arrays computed from qmat take no part in the comparison."""
    assert QuatHermitianForm() == QuatHermitianForm()
    doubled = QuatHermitianForm(tuple(tuple(q * 2.0 for q in row) for row in FORM.qmat))
    assert (FORM == doubled) is False
    assert (FORM != doubled) is True
    assert doubled == QuatHermitianForm(doubled.qmat)


def test_omega_alternating_and_h_hermitian():
    h = FORM.hmat
    om = _OMEGA_OF_H @ h
    assert np.allclose(h, h.conj().T)
    assert np.allclose(om, -om.T)
    # h has split signature (2, 2)
    evals = np.linalg.eigvalsh(h)
    assert int(np.sum(evals > 0)) == 2 and int(np.sum(evals < 0)) == 2


def test_h_vanishes_on_j_pairs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # h(v, vj) = conj(-omega(v, v)), and omega alternates
        assert abs(v.conj() @ FORM.hmat @ j_on_vector(v)) < 1e-12 * np.vdot(v, v).real
        # h(v, v) is real
        assert abs((v.conj() @ FORM.hmat @ v).imag) < 1e-10


def test_null_points_are_imaginary_quaternions():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = Quaternion(0.0, *rng.standard_normal(3))
        assert FORM.is_null_point(HPoint.from_quaternion(q), 1e-9)
        q2 = Quaternion(1.0, *rng.standard_normal(3))
        assert not FORM.is_null_point(HPoint.from_quaternion(q2), 1e-6)
    assert FORM.is_null_point(HPoint.infinity(), 1e-9)


# ---------------------------------------------------------------------------
# the perpendicularity involution


def test_rho_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = normalize_proj(wedge(
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
            rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        assert proj_distance(rho(rho(a, FORM), FORM), a) < 1e-8


def test_rho_tilde_squares_to_identity():
    m = rho_tilde_matrix(FORM)
    assert np.linalg.norm(m @ m.conj() - np.eye(6)) < 1e-9


@INDEFINITE_FORMS
def test_lie_basis_fixed_and_real_gram(form):
    basis = lie_basis(form)
    m = rho_tilde_matrix(form)
    for b in basis:
        assert np.linalg.norm(m @ np.conj(b) - b) < 1e-9
    gram = np.array([[quadric_pair(a, b) for b in basis] for a in basis])
    assert np.linalg.norm(gram.imag) < 1e-9


def test_fiber_of_null_point_is_lie_real():
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = Quaternion(0.0, *rng.standard_normal(3))
        fib = twistor_fiber(HPoint.from_quaternion(q))
        assert is_lie_real(fib, FORM, 1e-7)
    # the fiber of a point off the three-sphere is not fixed
    fib = twistor_fiber(HPoint.from_quaternion(Quaternion(1.0, 1.0, 0.0, 0.0)))
    assert not is_lie_real(fib, FORM, 1e-6)


# ---------------------------------------------------------------------------
# signatures


@INDEFINITE_FORMS
def test_signature_report(form):
    rpt = lie_signature_report(form)
    assert rpt["dimension"] == 6
    assert rpt["basis"] == (2, 4)
    assert rpt["omega_slice"] == (1, 4)


# ---------------------------------------------------------------------------
# circles in the three-sphere


def _imag_point(v):
    return HPoint.from_quaternion(Quaternion(0.0, *v))


def test_circle_to_Q3_pair():
    rng = np.random.default_rng(5)
    pts = [_imag_point(rng.standard_normal(3)) for _ in range(3)]
    a, b = circle_to_Q3(*pts, FORM)
    assert proj_distance(normalize_proj(j_on_bivector(a)), b) < 1e-7
    for x in (a, b):
        assert abs(quadric_pair(x, x)) < 1e-7
        assert abs(FORM.omega_vec @ x) < 1e-7
        for p in pts:
            assert lines_incident(x, twistor_fiber(p), 1e-7)


def test_circle_to_Q3_rejects_off_sphere_points():
    pts = [_imag_point(v) for v in ((1, 0, 0), (0, 1, 0))]
    bad = HPoint.from_quaternion(Quaternion(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        circle_to_Q3(pts[0], pts[1], bad, FORM)


def test_circle_to_Q3_rejects_coincident_points():
    p = _imag_point((1, 0, 0))
    q = _imag_point((0, 1, 0))
    with pytest.raises(GeometryError):
        circle_to_Q3(p, p, q, FORM)


@pytest.mark.parametrize("call, message", [
    (lambda: QuatHermitianForm(((Quaternion(), Quaternion.one()), (Quaternion(2.0), Quaternion()))),
     "h component is not hermitian"),
    (lambda: QuatHermitianForm(((Quaternion(), Quaternion()), (Quaternion(), Quaternion()))),
     "degenerate hermitian form"),
    (lambda: rho(np.array([1, 0, 0, 0, 0, 1], dtype=complex)), "bivector is not decomposable"),
], ids=["off-diagonal-1-and-2", "zero-matrix", "rho-of-e01-plus-e23"])
def test_lie_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{message}$"):
        call()


def test_a_form_whose_lift_does_not_square_is_refused_when_made():
    # h of ((1, 1), (1, 0.9999)) has singular-value ratio 2.5e-5, above the
    # rank cut, but the square of its perpendicularity lift is off the
    # identity by 4.9e-8, over the 1e-9 cut.  Before, the form was made and
    # its null test ran, and rho, lie_basis and lie_signature_report then
    # refused it.  At 0.999 (off by 2.7e-10) the form is made, and its
    # signatures are those of every form
    one = Quaternion.one()
    with pytest.raises(GeometryError, match="^perpendicularity lift does not square to identity$"):
        QuatHermitianForm(((one, one), (one, Quaternion.from_real(0.9999))))
    rpt = lie_signature_report(QuatHermitianForm(((one, one), (one, Quaternion.from_real(0.999)))))
    assert (rpt["basis"], rpt["omega_slice"]) == ((2, 4), (1, 4))


def _null_points(form, rng, count):
    """count points of the form's three-sphere: on the segment from a lift v
    with h(v, v) > 0 to one with h(w, w) < 0, the root of h(v + t w) = 0."""
    points = []
    while len(points) < count:
        v, w = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2))
        hv, hw = ((x.conj() @ form.hmat @ x).real for x in (v, w))
        if hv * hw < 0:
            t = np.roots([hw, 2 * (v.conj() @ form.hmat @ w).real, hv])[0].real
            points.append(twistor_project(v + t * w))
    return points


@INDEFINITE_FORMS
def test_a_positive_multiple_of_the_form_decides_as_the_form(form):
    # s form has the null cone and rho of form; before, s = 1e-6 was refused
    # as degenerate (|det h| = s^4 |det|) and at s = 1e10 the points failed
    # the absolute null test, and the omega row of size s set the relative
    # cut of circle_to_Q3's null space
    rng = np.random.default_rng(29)
    null = _null_points(form, rng, 3)
    points = null + [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4))) for _ in range(5)]
    want = lie_signature_report(form)
    circle = circle_to_Q3(*null, form)
    decisions = [form.is_null_point(p) for p in points]
    assert decisions == [True] * 3 + [False] * 5
    for s in (1e-6, 1e10):
        scaled = QuatHermitianForm(tuple(tuple(q * s for q in row) for row in form.qmat))
        got = lie_signature_report(scaled)
        assert [got[k] for k in ("basis", "omega_slice", "dimension")] == \
            [want[k] for k in ("basis", "omega_slice", "dimension")]
        for x, y in zip(circle_to_Q3(*null, scaled), circle):
            assert proj_distance(x, y) < 1e-12
        assert [scaled.is_null_point(p) for p in points] == decisions


# ---------------------------------------------------------------------------
# touching coins


def _circle(points3):
    return circle_to_Q3(points3[0], points3[1], points3[2], FORM)[0]


def _ortho_circle_points(a, b):
    """Three points on the circle through unit vectors a, b of S^2 that meets
    the unit sphere orthogonally (so consecutive such circles touch)."""
    ab = float(a @ b)
    c = (a + b) / (1.0 + ab)
    r = np.linalg.norm(a - c)
    u = (a - c) / r
    w = b - c - ((b - c) @ u) * u
    w = w / np.linalg.norm(w)
    return [_imag_point(c + r * (np.cos(t) * u + np.sin(t) * w))
            for t in (0.4, 1.3, 2.5)]


def _coplanar_coin_circles():
    """Four pairwise tangent circles in one plane of Im H."""
    radii = [1.0, 2.0, 1.5, 1.2]
    c1 = np.array([0.0, 0.0])
    c2 = np.array([radii[0] + radii[1], 0.0])
    th = np.deg2rad(100.0)
    c3 = c2 + (radii[1] + radii[2]) * np.array([np.cos(th), np.sin(th)])
    d41, d34 = radii[3] + radii[0], radii[2] + radii[3]
    span = np.linalg.norm(c3 - c1)
    a = (d41 ** 2 - d34 ** 2 + span ** 2) / (2 * span)
    h = np.sqrt(d41 ** 2 - a ** 2)
    u = (c3 - c1) / span
    c4 = c1 + a * u - h * np.array([-u[1], u[0]])
    circles = []
    for c, r in zip([c1, c2, c3, c4], radii):
        pts = [_imag_point((c[0] + r * np.cos(t), c[1] + r * np.sin(t), 0.0))
               for t in np.linspace(0.3, 2 * np.pi, 4)[:3]]
        circles.append(_circle(pts))
    return circles


def test_touching_coins_generic():
    rng = np.random.default_rng(7)
    qs = []
    for _ in range(4):
        v = rng.normal(size=3)
        qs.append(v / np.linalg.norm(v))
    circles = [_circle(_ortho_circle_points(qs[k - 1], qs[k]))
               for k in range(4)]
    rpt = touching_coins_check(circles, FORM)
    assert rpt.generic
    assert rpt.contact_tags == ["touch"] * 4
    assert rpt.sphere_tags == ["half_touch"] * 4
    # the contact points are the chain points qs on the unit sphere
    got = sorted(np.round([[p.affine().x, p.affine().y, p.affine().z]
                           for p in rpt.contact_points], 6).tolist())
    want = sorted(np.round(qs, 6).tolist())
    assert np.allclose(got, want, atol=1e-5)


def test_touching_coins_rank_of_the_reoriented_chain():
    # trial 5 of this seed: the representatives as given span three
    # dimensions, the chain re-oriented so that consecutive circles touch
    # spans four
    rng = np.random.default_rng(0)
    for _ in range(6):
        qs = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 3))]
    circles = [_circle(_ortho_circle_points(qs[k - 1], qs[k])) for k in range(4)]
    assert np.linalg.matrix_rank(np.array(circles), tol=1e-8) == 3
    rpt = touching_coins_check(circles, FORM)
    assert rpt.contact_tags == ["touch"] * 4
    assert rpt.sphere_tags == ["half_touch"] * 4


def test_touching_coins_coplanar_fallback():
    circles = _coplanar_coin_circles()
    rpt = touching_coins_check(circles, FORM)
    assert not rpt.generic
    assert rpt.contact_tags == ["touch"] * 4
    assert rpt.sphere_tags == ["half_touch"] * 4


def _benchmark_chains():
    """The 20 geodesic coin chains of the seed-1 sphere_kernels inputs, as
    circle_to_Q3 pairs: each input draws 17 random points, whose last four
    give the chain's directions, and then 19 more numbers."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        points = rng.standard_normal((17, 4))
        rng.uniform(size=3), rng.standard_normal(16)
        qs = []
        for x in points[13:]:
            q = HPoint.from_quaternion(Quaternion(*x)).affine()
            q = Quaternion(0.0, q.x, q.y, q.z).normalized()
            qs.append(np.array([q.x, q.y, q.z]))
        yield [circle_to_Q3(*_ortho_circle_points(qs[k - 1], qs[k]), FORM) for k in range(4)]


def test_sphere_tags_need_no_orientation_preference():
    """The sphere through the contact points meets every representative as
    given, whichever orientation each circle is given in: the chains of the
    benchmark by their first representatives, their j-images and their
    second representatives, and the coplanar chain as given, as j-images and
    mixed, all report four touches and four half-touches."""
    chains = []
    for pairs in _benchmark_chains():
        first = [a for a, _ in pairs]
        chains += [first, [j_on_bivector(a) for a in first], [b for _, b in pairs]]
    coplanar = _coplanar_coin_circles()
    chains += [coplanar, [j_on_bivector(c) for c in coplanar],
               [j_on_bivector(c) if k % 2 else c for k, c in enumerate(coplanar)]]
    for circles in chains:
        rpt = touching_coins_check(circles, FORM)
        assert rpt.contact_tags == ["touch"] * 4
        assert rpt.sphere_tags == ["half_touch"] * 4


def test_touching_coins_rejects_broken_chain():
    circles = _coplanar_coin_circles()
    # move the third circle so it no longer touches its neighbors
    pts = [_imag_point((7.0 + 1.3 * np.cos(t), 1.3 * np.sin(t), 0.0))
           for t in (0.3, 1.7, 3.1)]
    circles[2] = _circle(pts)
    with pytest.raises(GeometryError):
        touching_coins_check(circles, FORM)


def test_touching_coins_rejects_common_sphere_degeneracy():
    # circles of radii 1 to 4 tangent to the i-axis at 0, in one plane or
    # each turned about that axis: every pair touches at 0 along one tangent
    # line, so the chain passes the contact tests and reaches the rank test.
    # Four copies of one circle failed earlier, as circles that do not touch
    for turns in ((0.0, 0.0, 0.0, 0.0), (0.0, 0.5, 1.1, 2.0)):
        circles = [_circle([_imag_point((r * np.sin(t), (r - r * np.cos(t)) * np.cos(phi),
                                         (r - r * np.cos(t)) * np.sin(phi)))
                            for t in (0.7, 1.9, 3.5)])
                   for r, phi in zip((1.0, 2.0, 3.0, 4.0), turns)]
        with pytest.raises(GeometryError, match="^common-sphere degeneracy: representatives "
                                                "span fewer than four dimensions$"):
            touching_coins_check(circles, FORM)


def test_touching_coins_refuses_a_chain_whose_orientation_does_not_close():
    # circles in the i,j-plane: 1 inside 0, touching it at i; 3 outside 0,
    # touching it at j; 2 outside 1 and 3, touching both.  Three of the four
    # tangencies are external, so the orientation of the chain that touches
    # 0 to 1, 1 to 2 and 2 to 3 meets circle 0 reversed at the closing
    # contact, where circle 0 is no longer the one contact 0 was decided with
    c1, c3 = np.array([0.5, 0.0]), np.array([0.0, 1.5])
    mid, along = (c1 + c3) / 2, (c3 - c1) / np.linalg.norm(c3 - c1)
    c2 = mid + np.sqrt(1.0 - np.sum((c3 - c1) ** 2) / 4) * np.array([along[1], -along[0]])
    circles = [_circle([_imag_point((c[0] + r * np.cos(t), c[1] + r * np.sin(t), 0.0))
                        for t in (0.3, 1.7, 4.0)])
               for c, r in (((0.0, 0.0), 1.0), (c1, 0.5), (c2, 0.5), (c3, 0.5))]
    assert np.allclose(c2, (0.83095, 0.94365), atol=1e-5)
    with pytest.raises(GeometryError, match="^circles 3 and 0 touch only with circle 0 "
                                            "reversed: the chain's orientation does not close$"):
        touching_coins_check(circles, FORM)
