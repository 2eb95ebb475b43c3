import numpy as np
import pytest

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    is_decomposable,
    lines_incident,
    normalize_proj,
    plane_from_span,
    wedge,
)
from twistnets.twistor import HPoint, classify_contact, twistor_fiber
from twistnets.nets import evolve_net_circular, evolve_net_complex, sphere_frame
from twistnets.contact import (
    NullLine,
    contact_element,
    null_line_real_point,
    pcen_adjacency_residual,
    pcen_face_closure,
    pcen_from_circular,
    pcen_from_complex_cr,
    propagate_element,
    shared_sphere,
)


def _hp(w, x, y, z):
    return HPoint.from_quaternion(Quaternion(w, x, y, z))


def _sphere_c():
    e = np.eye(4, dtype=complex)
    return normalize_proj(wedge(e[0], e[2]))


def _circular_net(rng, shape=(5, 5), lam=-1.0):
    curve = [_hp(*rng.standard_normal(4)) for _ in range(shape[0])]
    seeds = [_hp(*rng.standard_normal(4)) for _ in range(shape[1] - 1)]
    return evolve_net_circular(curve, seeds, lam)


def _initial_element(net):
    rng = np.random.default_rng(99)
    sphere = _touching_sphere(net[0, 0], rng)
    return contact_element(net[0, 0], sphere)


def _touching_sphere(p: HPoint, rng):
    """A random non-fiber line through the lift of p (a sphere through p)."""
    v = p.lift()
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return normalize_proj(wedge(v, w))


def test_null_line_members_on_quadric():
    rng = np.random.default_rng(0)
    p = _hp(*rng.standard_normal(4))
    el = contact_element(p, _touching_sphere(p, rng))
    for a in el.sample(7):
        assert is_decomposable(a, 1e-8)
    # all members pass through the pencil point and pairwise touch there
    m1, m2 = el.member(0.3), el.member(-2.0 + 1.0j)
    assert lines_incident(m1, m2, 1e-9)


def test_null_line_real_point_is_fiber_member():
    rng = np.random.default_rng(1)
    p = _hp(*rng.standard_normal(4))
    el = contact_element(p, _touching_sphere(p, rng))
    rp = null_line_real_point(el)
    assert rp is not None and rp.isclose(p, 1e-8)
    assert el.contains_line(twistor_fiber(p), 1e-6)


def test_half_contact_element_has_no_real_point():
    # a pencil whose plane misses the j-image of its point contains no
    # twistor fiber
    e = np.eye(4, dtype=complex)
    plane = plane_from_span([e[0], e[2], e[1] + e[3]])
    el = NullLine(e[0], plane)
    assert null_line_real_point(el) is None


def test_pencil_point_must_lie_in_plane():
    e = np.eye(4, dtype=complex)
    plane = plane_from_span([e[0], e[1], e[2]])
    with pytest.raises(GeometryError):
        NullLine(e[3], plane)


def test_propagate_keeps_adjacency():
    rng = np.random.default_rng(2)
    p = _hp(*rng.standard_normal(4))
    q = _hp(*rng.standard_normal(4))
    el = contact_element(p, _touching_sphere(p, rng))
    nxt = propagate_element(el, q)
    assert null_line_real_point(nxt).isclose(q, 1e-7)
    line = shared_sphere(el, nxt)
    cc = classify_contact(line, line)
    assert cc.tag == "identical"
    # the shared sphere contains both base points
    assert lines_incident(line, twistor_fiber(p), 1e-7)
    assert lines_incident(line, twistor_fiber(q), 1e-7)


def test_pcen_closure_on_circular_net():
    rng = np.random.default_rng(3)
    net = _circular_net(rng, (5, 5))
    pcen = pcen_from_circular(net, _initial_element(net))
    assert pcen_face_closure(pcen) < 1e-9
    assert pcen_adjacency_residual(pcen) < 1e-9
    for idx in net.indices():
        rp = null_line_real_point(pcen[idx])
        assert rp is not None and rp.isclose(net[idx], 1e-7)


def test_pcen_rejects_colliding_base_points():
    rng = np.random.default_rng(4)
    net = _circular_net(rng, (3, 3))
    net.values[(1, 0)] = net[0, 0]
    with pytest.raises(GeometryError):
        pcen_from_circular(net, _initial_element(net))


def test_pcen_rejects_wrong_initial_element():
    rng = np.random.default_rng(5)
    net = _circular_net(rng, (3, 3))
    p = _hp(9.0, 9.0, 9.0, 9.0)
    wrong = contact_element(p, _touching_sphere(p, rng))
    with pytest.raises(GeometryError):
        pcen_from_circular(net, wrong)


def test_pcen_from_complex_cr_adjacency():
    rng = np.random.default_rng(6)
    lam = 1j
    curve = [complex(*rng.standard_normal(2)) for _ in range(5)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(4)]
    base = evolve_net_complex(curve, seeds, lam)
    pcen = pcen_from_complex_cr(_sphere_c(), base)
    assert pcen_adjacency_residual(pcen) < 1e-9
    # every element is a genuine contact element with a real point
    for idx in base.indices():
        assert null_line_real_point(pcen[idx]) is not None


def test_face_closure_needs_an_hp1_base():
    rng = np.random.default_rng(9)
    curve = [complex(*rng.standard_normal(2)) for _ in range(3)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(2)]
    pcen = pcen_from_complex_cr(_sphere_c(), evolve_net_complex(curve, seeds, 1j))
    with pytest.raises(GeometryError, match="face closure needs a 2-dim hp1 base"):
        pcen_face_closure(pcen)


def test_pcen_from_complex_cr_connecting_spheres_half_touch():
    rng = np.random.default_rng(7)
    lam = 1j
    curve = [complex(*rng.standard_normal(2)) for _ in range(4)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(3)]
    base = evolve_net_complex(curve, seeds, lam)
    pcen = pcen_from_complex_cr(_sphere_c(), base)
    S = _sphere_c()
    for idx in base.indices():
        for nxt in ((idx[0] + 1, idx[1]), (idx[0], idx[1] + 1)):
            if nxt[0] >= base.shape[0] or nxt[1] >= base.shape[1]:
                continue
            line = shared_sphere(pcen[idx], pcen[nxt])
            cc = classify_contact(line, S)
            assert cc.tag == "half_touch"


def test_pcen_sides_swap_parity():
    rng = np.random.default_rng(8)
    curve = [complex(*rng.standard_normal(2)) for _ in range(3)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(2)]
    base = evolve_net_complex(curve, seeds, 1j)
    S = _sphere_c()
    left = pcen_from_complex_cr(S, base, side="left")
    right = pcen_from_complex_cr(S, base, side="right")
    p, q = sphere_frame(S)
    span = np.column_stack([p, q])

    def on_sphere_line(x):
        c = np.linalg.lstsq(span, x, rcond=None)[0]
        return float(np.linalg.norm(span @ c - x)) < 1e-8

    # the two sides put the pencil point on opposite twistor lifts of S
    assert on_sphere_line(left[(0, 0)].point)
    assert not on_sphere_line(right[(0, 0)].point)
    assert on_sphere_line(right[(1, 0)].point)
    assert not on_sphere_line(left[(1, 0)].point)
    with pytest.raises(GeometryError):
        pcen_from_complex_cr(S, base, side="up")
