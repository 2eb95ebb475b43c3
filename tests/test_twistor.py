import numpy as np
import pytest

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    lines_incident,
    normalize_proj,
    plane_from_span,
    proj_distance,
    wedge,
)
from twistnets.twistor import (
    HPoint,
    classify_contact,
    is_j_real,
    j_on_bivector,
    j_on_vector,
    plane_fiber,
    sphere_contains,
    sphere_eigen_quaternion,
    sphere_from_eigenvectors,
    sphere_from_line,
    sphere_from_rhn,
    sphere_translate,
    twistor_fiber,
    twistor_project,
)


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


def test_sphere_complex_plane():
    # the sphere C: endomorphism diag-style with R = N = i and H = 0
    i = Quaternion.i()
    s = sphere_from_rhn(i, Quaternion(0, 0, 0, 0), i)
    for z in (0.0, 1.0, 1j, 2.3 - 0.7j):
        q = Quaternion.from_complex(complex(z))
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


def test_sphere_eigen_quaternion_square():
    rng = np.random.default_rng(4)
    r = Quaternion(0.0, *rng.standard_normal(3)).normalized()
    n = Quaternion(0.0, *rng.standard_normal(3)).normalized()
    center = Quaternion(*rng.standard_normal(4))
    s = sphere_translate(center, r, n)
    mu = sphere_eigen_quaternion(s, HPoint.from_quaternion(center))
    assert (mu * mu).isclose(Quaternion.from_real(-1.0), 1e-8)


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
