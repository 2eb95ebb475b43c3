import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st

from twistnets import proj4, twistor
from twistnets.quat import Quaternion
from twistnets.proj4 import (
    FIBER_TOL,
    INCIDENCE_TOL,
    GeometryError,
    is_decomposable,
    lines_incident,
    normalize_proj,
    plane_from_span,
    proj_distance,
    wedge,
)
from twistnets.twistor import (
    HPoint,
    SphereEndo,
    affine_rows,
    classify_contact,
    is_j_real,
    j_on_bivector,
    j_on_vector,
    plane_fiber,
    quat_pairs,
    sphere_contains,
    sphere_from_eigenvectors,
    sphere_from_line,
    sphere_from_rhn,
    sphere_translate,
    twistor_fiber,
    twistor_project,
)

from twistnets.nets import LatticeNet, face_planarity
from complex_fibers import lift_fiber_rows


def _random_hpoint(rng) -> HPoint:
    return HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))


def test_j_action_is_antilinear_involution():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(j_on_vector(j_on_vector(v)), -v)
    assert np.allclose(j_on_vector(1j * v), -1j * j_on_vector(v))
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.allclose(j_on_bivector(j_on_bivector(a)), a)


def test_lift_project_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = _random_hpoint(rng)
        v = p.lift()
        assert twistor_project(v).isclose(p, 1e-10)
        # the j-image of the lift projects to the same quaternionic point
        assert twistor_project(j_on_vector(v)).isclose(p, 1e-10)


def test_twistor_fiber_j_real():
    rng = np.random.default_rng(2)
    for _ in range(50):
        fib = twistor_fiber(_random_hpoint(rng))
        assert is_j_real(fib, 1e-9)
    assert is_j_real(twistor_fiber(HPoint.infinity()), 1e-12)


def test_distinct_points_have_disjoint_fibers():
    p = HPoint.from_quaternion(Quaternion(1, 0, 0, 0))
    q = HPoint.from_quaternion(Quaternion(0, 1, 0, 0))
    assert not lines_incident(twistor_fiber(p), twistor_fiber(q), 1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda: SphereEndo(np.eye(4, dtype=complex)).eigenline(),
     "endomorphism has no 2-dim i-eigenspace"),
    (lambda: sphere_from_rhn(Quaternion.one(), Quaternion(), Quaternion.i()),
     "matrix (R,H;0,N) does not square to -Identity"),
], ids=["identity-endomorphism", "R-squares-to-1"])
def test_sphere_refusals(call, message):
    # the identity has no i-eigenvector; R = 1 squares to 1, not -1
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


def test_sphere_from_rhn_contains_translates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = Quaternion(0.0, *rng.standard_normal(3)).normalized()
        n = Quaternion(0.0, *rng.standard_normal(3)).normalized()
        center = Quaternion(*rng.standard_normal(4))
        s = sphere_translate(center, r, n)
        assert s.squares_to_minus_identity(1e-9)
        # center satisfies the membership identity, so it lies on the sphere
        assert sphere_contains(s, HPoint.from_quaternion(center), 1e-8)


@pytest.mark.parametrize("log_s", [0, 3, 6, 8, 9, 12])
def test_sphere_from_rhn_tests_each_relation_against_its_terms(log_s):
    # the test was ||M^2 + I|| < 4e-8, whose residual grows with |H| =
    # |cN - Rc|: from centers of size 1e8 on a valid translate was refused.
    # R = 2i, N^2 != -1 and an H off RH + HN = 0 are refused at every size
    rng = np.random.default_rng(3)
    r, n = (Quaternion(0.0, *rng.standard_normal(3)).normalized() for _ in range(2))
    center = Quaternion(*rng.standard_normal(4)) * 10.0 ** log_s
    sphere_translate(center, r, n)
    h = center * n - r * center
    for bad in ((Quaternion(0, 2), h, n), (r, h, n + Quaternion(0, 0, 0.5)),
                (r, h + Quaternion(h.norm()), n)):
        with pytest.raises(GeometryError, match=r"^matrix \(R,H;0,N\) does not square"):
            sphere_from_rhn(*bad)


def test_sphere_complex_plane():
    # the sphere C: endomorphism diag-style with R = N = i and H = 0
    i = Quaternion.i()
    s = sphere_from_rhn(i, Quaternion(0, 0, 0, 0), i)
    for z in (0.0, 1.0, 1j, 2.3 - 0.7j):
        q = Quaternion(z.real, z.imag)
        assert sphere_contains(s, HPoint.from_quaternion(q), 1e-9)
    assert sphere_contains(s, HPoint.infinity(), 1e-9)
    assert not sphere_contains(s, HPoint.from_quaternion(Quaternion.j()), 1e-6)


def test_sphere_eigenline_roundtrip():
    # eigenline of the endomorphism recovers the twistor lift as a line
    i = Quaternion.i()
    s = sphere_from_rhn(i, Quaternion(0, 0, 0, 0), i)
    line = s.eigenline()
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e2 = np.array([0, 0, 1, 0], dtype=complex)
    assert proj_distance(line, normalize_proj(wedge(e1, e2))) < 1e-9
    s2 = sphere_from_line(line)
    assert np.allclose(s2.matrix, s.matrix, atol=1e-9) or \
        np.allclose(s2.matrix, -s.matrix, atol=1e-9)


def test_sphere_from_line_decides_points_at_fiber_tol():
    # a line further than FIBER_TOL from a twistor fiber is a sphere, however
    # small, and its eigenvectors pass the same test
    rng = np.random.default_rng(9)
    v, w = (normalize_proj(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(2))
    for eps, point in ((1e-9, True), (1e-6, False), (1e-3, False)):
        assert isinstance(sphere_from_line(wedge(v, j_on_vector(v) + eps * w)), HPoint) == point
    with pytest.raises(GeometryError, match="eigenline is j-real"):
        sphere_from_eigenvectors(v, 3 * j_on_vector(v))


def test_touching_parallel_planes():
    # two parallel copies of C touch at infinity
    i = Quaternion.i()
    zero = Quaternion(0, 0, 0, 0)
    a = sphere_from_rhn(i, zero, i).eigenline()
    b = sphere_translate(Quaternion.j(), i, i).eigenline()
    cc = classify_contact(a, b)
    assert cc.tag == "touch"
    assert cc.witnesses[0].is_infinity()


def test_touch_requires_matching_h():
    # same R, N but a tilted conformal structure only half-touches
    i, j = Quaternion.i(), Quaternion.j()
    zero = Quaternion(0, 0, 0, 0)
    a = sphere_from_rhn(i, zero, i).eigenline()
    b = sphere_from_rhn(i, zero, j).eigenline()
    cc = classify_contact(a, b)
    assert cc.tag in ("half_touch", "touch")
    assert cc.tag == "half_touch"


def test_identical_up_to_j():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = wedge(v, w)
    assert classify_contact(a, 1j * a).tag == "identical"
    assert classify_contact(a, j_on_bivector(a)).tag == "identical"


def test_half_touch_witnesses_conjugate_pair():
    # the sphere C against the line joining parameter i with the j-image
    # frame: half-touching at the conjugate parameter pair {i, -i}
    e = np.eye(4, dtype=complex)
    S = wedge(e[0], e[2])
    lam = 1j
    x = e[0] * lam + e[2]
    y = j_on_vector(e[0]) * lam + j_on_vector(e[2])
    b = wedge(x, y)
    cc = classify_contact(S, b)
    assert cc.tag == "half_touch"
    zs = sorted((w.affine().complex_pair()[0] for w in cc.witnesses),
                key=lambda z: z.imag)
    assert abs(zs[0] - (-1j)) < 1e-9 and abs(zs[1] - 1j) < 1e-9


def test_plane_fiber_is_fiber():
    rng = np.random.default_rng(6)
    p = _random_hpoint(rng)
    fib = twistor_fiber(p)
    from twistnets.proj4 import line_factorize
    v, w = line_factorize(fib)
    plane = plane_from_span([v, w, rng.standard_normal(4) + 1j * rng.standard_normal(4)])
    rec = plane_fiber(plane)
    assert proj_distance(rec, fib) < 1e-8


def test_hpoints_close_scaling():
    q = Quaternion(1.0, 2.0, -0.5, 0.25)
    mu = Quaternion(0.3, -1.0, 0.7, 2.0)
    p1 = HPoint(q, Quaternion.one())
    p2 = HPoint(q * mu, mu)
    assert p1.isclose(p2, 1e-10)


def test_circle_intersection_has_one_witness_on_both_lines():
    # b is given by its j-image, the same sphere reversed: a misses it and
    # meets b itself, and the witness's fiber meets both lines
    rng = np.random.default_rng(10)
    for _ in range(20):
        r, r2, n = (Quaternion(0.0, *rng.standard_normal(3)).normalized() for _ in range(3))
        a = sphere_translate(Quaternion(*rng.standard_normal(4)), r, n).eigenline()
        b = j_on_bivector(sphere_translate(Quaternion(*rng.standard_normal(4)), r2, n).eigenline())
        cc = classify_contact(a, b)
        assert cc.tag == "circle_intersection" and len(cc.witnesses) == 1
        fiber = twistor_fiber(cc.witnesses[0])
        assert lines_incident(fiber, a, 1e-8) and lines_incident(fiber, b, 1e-8)


# Near-fibers whose leading Pluecker coordinate, |q|^2 / (1 + |q|^2) for the
# fiber over [q : 1], lies between 2e-6 and 1e-5 of the norm, just above the
# 1e-6 of normalize_proj's phase anchor, plus noise of norm 1e-12; each comes
# with a sphere line through one of its points and the fiber over infinity,
# which it misses.  Scales r e^(i psi) have r in [1e-6, 1e6].
PREDICATES = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_direction = st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
                      min_size=4, max_size=4).filter(lambda x: math.hypot(*x) > 0.1)
_noise = st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
                  min_size=12, max_size=12).filter(lambda x: math.hypot(*x) > 0.1)


@st.composite
def _near_fiber(draw):
    d = np.array(draw(_direction))
    lead = draw(st.floats(2e-6, 1e-5))
    p = HPoint.from_quaternion(Quaternion(*(d / np.linalg.norm(d) * math.sqrt(lead / (1 - lead)))))
    noise = np.array(draw(_noise))
    noise = noise[:6] + 1j * noise[6:]
    x = twistor_fiber(p) + 1e-12 * noise / np.linalg.norm(noise)
    sphere = wedge(p.lift(), np.array(draw(_direction)) + 1j * np.array(draw(_direction)))
    return x, sphere, twistor_fiber(HPoint.infinity())


_scale = st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 2 * math.pi)).map(
    lambda t: 10.0 ** t[0] * complex(math.cos(t[1]), math.sin(t[1])))


def _anchored_is_j_real(a, tol):
    """is_j_real as it was: the distance of two phase-anchored normalizations."""
    a = normalize_proj(a)
    return bool(np.linalg.norm(a - normalize_proj(j_on_bivector(a))) < tol)


@PREDICATES
@given(_near_fiber(), _scale, _scale)
def test_incidence_verdicts_ignore_scale_and_phase(lines, s, t):
    x, sphere, far = lines
    for u, v in ((x, sphere), (s * x, t * sphere)):
        assert is_decomposable(u, INCIDENCE_TOL) and is_decomposable(v, INCIDENCE_TOL)
        assert lines_incident(u, v, INCIDENCE_TOL)
        assert not lines_incident(u, t * far, INCIDENCE_TOL)
        assert is_j_real(u, FIBER_TOL) and not is_j_real(v, FIBER_TOL)


def test_anchored_fiber_test_misjudges_near_fibers():
    # the control: the phase-anchored formula calls some of these inputs
    # no fiber, so the property above has teeth; x and its j-image are each
    # within 1e-12 of the fiber, 2e-12 apart up to rounding
    x, _, _ = find(_near_fiber(), lambda lines: not _anchored_is_j_real(lines[0], FIBER_TOL),
                   settings=PREDICATES)
    assert proj_distance(x, j_on_bivector(x)) < 2.1e-12


def test_incidence_predicates_never_normalize(monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return normalize_proj(v)

    for module in (proj4, twistor):
        monkeypatch.setattr(module, "normalize_proj", counted)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = (wedge(*(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))))
                for _ in range(2))
        is_decomposable(a)
        lines_incident(a, b)
        is_j_real(a)
    assert calls == []
    # below normalize_proj's 1e-12 cut a vector is no projective point
    tiny = 1e-13 * a / np.linalg.norm(a)
    for check in (lambda: is_decomposable(tiny), lambda: lines_incident(a, tiny),
                  lambda: lines_incident(tiny, a), lambda: is_j_real(tiny),
                  lambda: is_j_real(np.zeros(6))):
        with pytest.raises(GeometryError, match="near-"):
            check()


@PREDICATES
@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False), min_size=8,
                max_size=8).filter(lambda x: math.hypot(*x) > 0.1),
       st.floats(-6.0, 200.0), st.floats(0.0, 2 * math.pi))
def test_twistor_project_at_any_scale(parts, log_r, psi):
    # one hypot norm: 1e200 components neither overflow nor lose the point
    v = np.array(parts[:4]) + 1j * np.array(parts[4:])
    scaled = v * (10.0 ** log_r * complex(math.cos(psi), math.sin(psi)))
    assert twistor_project(scaled).isclose(twistor_project(v), 1e-12)


def test_twistor_project_refuses_a_zero_vector():
    assert twistor_project(np.array([1e200, 0, 0, 1])).is_infinity()
    for zero in (np.zeros(4), np.full(4, 1e-13)):
        with pytest.raises(GeometryError):
            twistor_project(zero)


def test_contact_and_coin_tags_never_read_the_phase_anchor(monkeypatch):
    # normalize_proj with a random unit phase on every result: every tag of
    # classify_contact and touching_coins_check stays as it was
    from twistnets import lie
    from twistnets.proj4 import line_factorize

    rng = np.random.default_rng(12)

    def unit_quaternion():
        return Quaternion(0.0, *rng.standard_normal(3)).normalized()

    def sphere(r, n):
        return sphere_translate(Quaternion(*rng.standard_normal(4)), r, n).eigenline()

    pairs = []
    for _ in range(10):
        r, n = unit_quaternion(), unit_quaternion()
        a = sphere(r, n)
        v, w = line_factorize(a)
        pairs += [(a, 1j * a), (a, sphere(r, n)),
                  (a, wedge(v + 0.7 * w, rng.standard_normal(4) + 1j * rng.standard_normal(4))),
                  (a, j_on_bivector(sphere(unit_quaternion(), n))),
                  tuple(wedge(*(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))))
                        for _ in range(2))]
    chains = []
    for _ in range(10):
        qs = [x / np.linalg.norm(x) for x in rng.standard_normal((4, 3))]
        chains.append([lie.circle_to_Q3(*_geodesic_points(qs[k - 1], qs[k]))[0] for k in range(4)])

    def tags():
        coins = [lie.touching_coins_check(chain) for chain in chains]
        return ([classify_contact(a, b).tag for a, b in pairs],
                [(c.contact_tags, c.sphere_tags, c.generic) for c in coins])

    want = tags()
    assert set(want[0]) == {"identical", "touch", "half_touch", "circle_intersection",
                            "disjoint"}

    def rotated(v):
        return normalize_proj(v) * np.exp(2j * math.pi * rng.random())

    for module in (proj4, twistor, lie):
        monkeypatch.setattr(module, "normalize_proj", rotated)
    assert tags() == want


def _geodesic_points(a, b):
    """Three points of the circle through unit vectors a, b of S^2 that meets
    the unit sphere orthogonally."""
    c = (a + b) / (1.0 + float(a @ b))
    r = np.linalg.norm(a - c)
    u = (a - c) / r
    w = b - c - ((b - c) @ u) * u
    w = w / np.linalg.norm(w)
    return [HPoint.from_quaternion(Quaternion(0.0, *(c + r * (np.cos(t) * u + np.sin(t) * w))))
            for t in (0.4, 1.3, 2.5)]


@PREDICATES
@given(_near_fiber(), st.floats(-13.0, -3.0), _scale)
def test_sphere_from_line_never_disowns_a_sphere(lines, log_eps, s):
    # near-fibers moved toward a sphere through one of their points, from well
    # inside FIBER_TOL to well outside it: a line that sphere_from_line does
    # not call a point has a sphere endomorphism
    x, sphere, _ = lines
    try:
        sphere_from_line(s * (x + 10.0 ** log_eps * sphere))
    except GeometryError as exc:
        assert "eigenline is j-real" not in str(exc)
        raise


def test_affine_rows_are_hpoint_affine_and_never_overflow():
    # bit for bit the scalar chart and infinity test, on pairs at scales from
    # 1e-6 to 1e6 with b far from, near and at zero; components above 1e154,
    # whose squares overflow, are at infinity without a RuntimeWarning
    rng = np.random.default_rng(20)
    pairs = rng.standard_normal((300, 2, 4)) * 10.0 ** rng.uniform(-6, 6, (300, 2, 1))
    pairs[::7, 1] *= 1e-9
    pairs[::11, 1] = 0.0
    q, at_inf = twistor.affine_rows(pairs)
    for row, inf, (a, b) in zip(q.tolist(), at_inf.tolist(), pairs.tolist()):
        p = HPoint(Quaternion(*a), Quaternion(*b))
        assert inf == p.is_infinity()
        if not inf:
            v = p.affine()
            assert row == [v.w, v.x, v.y, v.z]
    huge = np.array([[[1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                     [[1e300, -1e300, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]])
    assert twistor.affine_rows(huge)[1].tolist() == [True, True]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False), min_size=4,
                max_size=4).filter(lambda x: math.hypot(*x) > 0.1),
       st.floats(-12.0, 12.0))
def test_the_hp1_infinity_cut_is_scale_free(q, log_r):
    # [q r : r] is q and [r : r e] is infinity exactly when |e| < 1e-9
    # (to rounding), at every scale r in [1e-12, 1e12], for HPoint and
    # affine_rows alike; before, the cut was |b| < 1e-9 max(1, |a|), so
    # [1e-10 : 1e-10] was infinity
    r, q = 10.0 ** log_r, Quaternion(*q)
    pairs = [(q * r, Quaternion(r)), (Quaternion(r), Quaternion(r * 1e-8)),
             (Quaternion(r), Quaternion(r * 1e-10)), (Quaternion(0.0, r), Quaternion())]
    points = [HPoint(a, b) for a, b in pairs]
    assert [p.is_infinity() for p in points] == [False, False, True, True]
    assert (points[0].affine() - q).norm() < 1e-14 * q.norm()
    rows, at_inf = twistor.affine_rows(quat_pairs(points))
    assert at_inf.tolist() == [False, False, True, True]
    for row, p in zip(rows[:2].tolist(), points):
        v = p.affine()
        assert row == [v.w, v.x, v.y, v.z]


@pytest.mark.parametrize("point", [HPoint.infinity(), HPoint(Quaternion(1e-12), Quaternion()),
                                   HPoint(Quaternion(0.0, 0.0, 1e12), Quaternion())],
                         ids=["unit", "small", "large"])
def test_a_point_at_infinity_has_no_affine_coordinate(point):
    with pytest.raises(GeometryError, match="^point at infinity has no affine coordinate$"):
        point.affine()


# ---------------------------------------------------------------------------
# HP^1 points at any scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False), min_size=4,
                max_size=4), _direction, st.floats(-300.0, 300.0))
# the lift of [1e-7 k : 1] has norm 1 + 5e-15, which the normalizers once kept
@example([0.0, 0.0, 0.0, 1e-7], [0.0, 0.0, 0.0, 1.0], 0.0)
def test_a_pair_at_any_scale_lifts_onto_its_points_fiber(q, s, log_r):
    # [q s : s] with |s| in [1e-300, 1e300] is [q : 1]; before, a pair with
    # |q s| and |s| under 1e-14 was refused, and one under normalize_proj's
    # 1e-12 cut could not be lifted; affine() and affine_rows squared |b|,
    # which underflowed or overflowed beyond 1e-154 and 1e154.  Bounds: over
    # 50,000 such draws the fiber residual reached 1.1e-15 and the relative
    # error of affine() 5.5e-16 (1.0e-15 and 6.1e-16 for |s| in [1e-100,
    # 1e100])
    q = Quaternion(*q)
    s = Quaternion(*(np.array(s) / math.hypot(*s) * 10.0 ** log_r))
    p = HPoint(q * s, s)
    assert proj4.span_residual(p.lift(), *twistor.fiber_pair(HPoint.from_quaternion(q))) < 3e-15
    got = p.affine()
    assert (got - q).norm() < 2e-15 * max(1.0, q.norm())
    rows, at_inf = affine_rows(quat_pairs([p]))
    assert not at_inf[0] and rows[0].tolist() == [got.w, got.x, got.y, got.z]
    # [s : s 1e-20] is at infinity: |b| / |(a, b)| = 1e-20
    far = HPoint(s, s * 1e-20)
    assert far.is_infinity() and affine_rows(quat_pairs([far]))[1].tolist() == [True]


def test_only_a_zero_or_non_finite_pair_is_no_point():
    one = HPoint(Quaternion(1e-15), Quaternion(1e-15))
    assert one.isclose(HPoint.from_quaternion(Quaternion.one()), 1e-15)
    # 5e-324, the smallest subnormal, is scaled by a power of two too
    assert HPoint(Quaternion(5e-324), Quaternion()).lift().tolist() == [1, 0, 0, 0]
    with pytest.raises(GeometryError, match="^homogeneous quaternion pair must be nonzero$"):
        HPoint(Quaternion(), Quaternion())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryError, match="^homogeneous quaternion pair must be finite$"):
            HPoint(Quaternion(1.0, bad), Quaternion(1.0))
    # a finite pair whose norm is above the largest float is a point
    HPoint(Quaternion(1e308, 1e308), Quaternion(1e308))


def test_affine_of_pairs_whose_squares_leave_the_float_range():
    # each raised ZeroDivisionError, returned 0 or was not at infinity
    assert (HPoint(Quaternion(1e-300), Quaternion(1e-300)).affine() - Quaternion.one()).norm() < 1e-15
    three_i = HPoint(Quaternion(3e160, 1e160), Quaternion(1e160)).affine()
    assert (three_i - Quaternion(3.0, 1.0)).norm() < 1e-15
    far = HPoint(Quaternion(1e200), Quaternion(1e180))
    assert far.is_infinity()
    with pytest.raises(GeometryError, match="no affine coordinate"):
        far.affine()


_part = st.floats(-10.0, 10.0, allow_subnormal=False).filter(lambda c: c == 0.0 or abs(c) > 1e-6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_part, min_size=8, max_size=8).filter(lambda x: math.hypot(*x) > 0.1),
       st.sampled_from([1.0, 1e-8, 1e-10, 0.0]), st.integers(-1000, 1000))
def test_a_pair_scaled_by_a_power_of_two_reads_as_the_pair_bit_for_bit(parts, t, k):
    # (a 2^k, b 2^k) is [a : b], and the constructor stores every pair in
    # range, so the scalar and row paths give the pair's bits; before,
    # lift_rows of the pairs of points under 1e-12 raised, as nets lift them.
    # b t puts some points at, or near, infinity
    assume(t or any(parts[:4]))
    a, b = Quaternion(*parts[:4]), Quaternion(*parts[4:]) * t
    p = HPoint(a, b)
    parts = [a.w, a.x, a.y, a.z, b.w, b.x, b.y, b.z]
    shifted = [math.ldexp(c, k) for c in parts]
    # the scaling is exact: no component leaves the normal floats
    assume([math.ldexp(c, -k) for c in shifted] == parts)
    scaled = HPoint(Quaternion(*shifted[:4]), Quaternion(*shifted[4:]))
    assert scaled.lift().tolist() == p.lift().tolist()
    assert scaled.is_infinity() == p.is_infinity()
    if not p.is_infinity():
        assert scaled.affine() == p.affine()
    pairs = quat_pairs([scaled, p])
    assert np.array_equal(*twistor.lift_rows(pairs))
    rows, at_inf = affine_rows(pairs)
    assert np.array_equal(*rows) and at_inf[0] == at_inf[1] == p.is_infinity()


@pytest.mark.parametrize("k", [-1000, -200, -60, -40, 0, 40, 200, 1000])
def test_lift_rows_of_raw_pairs_at_any_power_of_two(k):
    # document pairs reach lift_rows unscaled: under a norm of 1e-12 they
    # were refused as zero vectors, where HPoint scales them when it is made
    pairs = np.random.default_rng(30).standard_normal((3, 2, 2, 4))
    scaled = pairs * 2.0 ** k
    assert np.array_equal(scaled * 2.0 ** -k, pairs)
    rows = twistor.lift_rows(scaled)
    assert np.array_equal(rows, twistor.lift_rows(pairs))
    for (a, b), row in zip(scaled.reshape(-1, 2, 4), rows.reshape(-1, 4)):
        assert np.abs(HPoint(Quaternion(*a), Quaternion(*b)).lift() - row).max() < 1e-15
    net, unscaled = (LatticeNet(2, (3, 2), "hp1", data=x) for x in (scaled, pairs))
    assert np.array_equal(net.lifts(), rows)
    assert face_planarity(net, (0, 0), (0, 1)) == face_planarity(unscaled, (0, 0), (0, 1))


# ---------------------------------------------------------------------------
# the real section of the Pluecker quadric


# HP^1 points at, and near, 0 and infinity: at [e : b] with |e| under 1e-3
# the complex fiber's leading coordinate |e|^2 falls under the 1e-6 of
# normalize_proj's phase anchor, which moves off x01
_PLACES = ("generic", "infinity", "near-infinity", "zero", "near-zero")


@st.composite
def _unit_lifts(draw):
    """4 to 8 unit lifts, each at a scale r e^(i psi) before its
    normalization, with the phase kept."""
    rows = []
    for _ in range(draw(st.integers(4, 8))):
        a, b = np.array(draw(_direction)), np.array(draw(_direction))
        place, eps = draw(st.sampled_from(_PLACES)), 10.0 ** draw(st.floats(-12.0, -3.0))
        if place.endswith("infinity"):
            b = b * (0.0 if place == "infinity" else eps)
        elif place.endswith("zero"):
            a = a * (0.0 if place == "zero" else eps)
        v = draw(_scale) * twistor.lift_rows(np.array([a, b]))
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


@PREDICATES
@given(_unit_lifts())
def test_real_fiber_rows_are_an_isometry_of_the_complex_fibers(v):
    # Bounds: over 160,000 such rows the unit defect reached 6.7e-16, the
    # Gram difference to the fibers as computed 8.9e-16, and the modulus and
    # singular-value differences to the phase-normalized fibers 1.8e-15
    rows = twistor.real_fiber_rows(v)
    assert rows.dtype == float and rows.shape == (len(v), 6)
    assert np.abs(np.linalg.norm(rows, axis=-1) - 1.0).max() < 2e-15
    gram = rows @ rows.T
    fibers = proj4.wedge_rows(v, j_on_vector(v))
    assert np.abs(gram - fibers.conj() @ fibers.T).max() < 3e-15
    # the complex reference is phase-normalized, so its Gram matrix differs
    # from this one by a diagonal unitary: the moduli and the singular
    # values agree
    ref = lift_fiber_rows(v)
    assert np.abs(np.abs(gram) - np.abs(ref.conj() @ ref.T)).max() < 5e-15
    assert np.abs(np.linalg.svd(rows, compute_uv=False)
                  - np.linalg.svd(ref, compute_uv=False)).max() < 5e-15


def test_the_real_row_of_a_fiber_is_its_pluecker_vector():
    # the fibers over infinity and 0 are e0 ^ e1 and e2 ^ e3
    rows = twistor.real_fiber_rows(np.eye(4, dtype=complex)[[0, 2]])
    assert rows.tolist() == [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    rng = np.random.default_rng(25)
    v = twistor.lift_rows(rng.standard_normal((20, 2, 4)))
    x, r = proj4.wedge_rows(v, j_on_vector(v)), twistor.real_fiber_rows(v)
    s = math.sqrt(2.0)
    assert np.abs(r - np.stack([x[:, 0].real, x[:, 5].real, s * x[:, 1].real, s * x[:, 1].imag,
                                s * x[:, 2].real, s * x[:, 2].imag], axis=-1)).max() < 1e-15
