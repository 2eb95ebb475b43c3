import re

import numpy as np
import pytest

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    is_decomposable,
    lines_incident,
    normalize_proj,
    orthonormal_pair_rows,
    plane_from_span,
    plane_residual_rows,
    wedge,
)
from twistnets.twistor import HPoint, classify_contact, j_on_vector, twistor_fiber, twistor_project
from twistnets.xratio import moebius_apply
from twistnets.cli import doc_to_pcen, pcen_to_doc
from twistnets.nets import (
    LatticeNet,
    box_cells,
    evolve_net_circular,
    evolve_net_complex,
    sphere_frame,
)
from twistnets.contact import (
    PCEN,
    NullLine,
    closure_faces,
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


def test_null_line_real_point_is_fiber_member():
    rng = np.random.default_rng(1)
    p = _hp(*rng.standard_normal(4))
    el = contact_element(p, _touching_sphere(p, rng))
    rp = null_line_real_point(el)
    assert rp is not None and rp.isclose(p, 1e-8)


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
    net[1, 0] = net[0, 0]
    with pytest.raises(GeometryError):
        pcen_from_circular(net, _initial_element(net))


@pytest.mark.parametrize("copies, first", [
    ((((2, 1), (2, 2)), ((3, 1), (2, 2))), "(2, 1) and (3, 1)"),
    ((((2, 1), (2, 2)), ((3, 1), (2, 2)), ((0, 3), (0, 2))), "(0, 2) and (0, 3)"),
])
def test_colliding_base_points_name_the_first_colliding_edge(copies, first):
    """Of several colliding neighbours the message names the first edge by
    its base in index order, then by its axis."""
    net = _circular_net(np.random.default_rng(4), (4, 4))
    initial = _initial_element(net)
    for to, source in copies:
        net[to] = net[source]
    with pytest.raises(GeometryError, match=rf"^colliding base points at {re.escape(first)}$"):
        pcen_from_circular(net, initial)


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
    with pytest.raises(GeometryError, match="face closure needs an hp1 base"):
        pcen_face_closure(pcen)


def _grid_net(rng, shape):
    """A circular net of any dimension up to 4: a box grid in H, axis a
    along the quaternion unit a with random steps, so that every face is a
    rectangle, mapped by a random Moebius transformation."""
    m = tuple(tuple(Quaternion(*rng.standard_normal(4)) for _ in range(2)) for _ in range(2))
    ticks = [np.cumsum(rng.uniform(0.3, 1.0, n)) for n in shape]
    offset = rng.standard_normal(4)
    net = LatticeNet(shape, "hp1")
    for idx in np.ndindex(*shape):
        q = offset.copy()
        q[:len(idx)] += [t[i] for t, i in zip(ticks, idx)]
        net[idx] = moebius_apply(m, HPoint.from_quaternion(Quaternion(*q)))
    return net


def _origin_element(net, rng):
    """A contact element at the origin of the net, on a random sphere."""
    origin = net[(0,) * net.dim]
    return contact_element(origin, _touching_sphere(origin, rng))


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 2, 2), (4, 1, 3), (3, 3, 3), (2, 3, 2, 2)])
def test_pcen_over_a_circular_grid_of_any_dimension_closes(shape):
    """Propagated along the axes, last first, the PCEN of a 3- or 4-dim
    circular net closes on every face of box_cells and shares a sphere
    along every edge (measured: at most 6.0e-14 and 1.1e-14)."""
    rng = np.random.default_rng(sum(shape))
    net = _grid_net(rng, shape)
    pcen = pcen_from_circular(net, _origin_element(net, rng))
    assert pcen_face_closure(pcen) < 1e-9
    assert pcen_adjacency_residual(pcen) < 1e-9
    assert closure_faces(pcen).sum() == len(box_cells(shape, 2)[0])
    for idx in net.indices():
        assert null_line_real_point(pcen[idx]).isclose(net[idx], 1e-7)


def test_pcen_over_a_random_3_dim_net_fails_the_closure():
    """The control: the faces of a net of random points are not circular,
    and the two routes over them disagree (measured: 1.41)."""
    rng = np.random.default_rng(20)
    net = LatticeNet((3, 3, 3), "hp1")
    for idx in net.indices():
        net[idx] = _hp(*rng.standard_normal(4))
    assert pcen_face_closure(pcen_from_circular(net, _origin_element(net, rng))) > 1e-3


@pytest.mark.parametrize("gap, message", [
    (5e-10, "fiber-in-plane degeneracy: line-in-plane: "),
    (1.5e-9, "next point coincides with the element's point: degenerate-span: rank 2"),
])
def test_a_3_dim_pcen_names_the_vertex_of_a_neighbour_near_the_fiber(gap, message):
    """A failed step of a 3-dim propagation names its vertex and its source
    as index triples: (1, 0, 1), moved to fiber distance gap from (0, 0, 1),
    fails the step along axis 0 that comes from it."""
    rng = np.random.default_rng(5)
    net = _grid_net(rng, (3, 3, 3))
    v = net[0, 0, 1].lift()
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    d = d - v * np.vdot(v, d) - j_on_vector(v) * np.vdot(j_on_vector(v), d)
    net[1, 0, 1] = twistor_project(v + gap * d / np.linalg.norm(d))
    with pytest.raises(GeometryError,
                       match=re.escape(f"at (1, 0, 1) from (0, 0, 1): {message}")):
        pcen_from_circular(net, _origin_element(net, rng))


def _adjacency_reference(pcen):
    """pcen_adjacency_residual one axis at a time, the edges of each axis
    from two shifted slices (a test-only copy of the per-axis pass)."""
    worst = 0.0
    for ax in range(pcen.base.dim):
        if pcen.base.shape[ax] < 2:
            continue
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        p1, p2 = pcen.points[lo].reshape(-1, 4), pcen.points[hi].reshape(-1, 4)
        f1, f2 = pcen.functionals[lo].reshape(-1, 4), pcen.functionals[hi].reshape(-1, 4)
        v, w = orthonormal_pair_rows(p1, p2)
        r = sum(plane_residual_rows(f, v) + plane_residual_rows(f, w) for f in (f1, f2))
        worst = max(worst, float(r.max()))
    return worst


@pytest.mark.parametrize("shape", [(3, 2, 4), (2, 1, 3)])
def test_adjacency_residual_of_a_3_dim_pcen_document_is_the_per_axis_one(shape):
    """All edges in one pass give the per-axis residual bit for bit: on the
    alternating net of a 3-dim complex cross-ratio base, whose elements
    share their spheres, and on random elements, which do not."""
    rng = np.random.default_rng(41)
    base = LatticeNet(shape, "cp1",
                      data=rng.standard_normal(shape + (2,)) + 1j * rng.standard_normal(shape + (2,)))
    alternating = pcen_from_complex_cr(_sphere_c(), base)
    points = rng.standard_normal(shape + (4,)) + 1j * rng.standard_normal(shape + (4,))
    planes = rng.standard_normal(shape + (4,)) + 1j * rng.standard_normal(shape + (4,))
    # each plane through its point: f @ p = 0
    planes -= ((planes * points).sum(-1) / (points.conj() * points).sum(-1))[..., None] \
        * points.conj()
    residuals = []
    for pts, fns in ((alternating.points, alternating.functionals), (points, planes)):
        doc = pcen_to_doc(PCEN(LatticeNet(shape, "hp1"), pts, fns))
        pcen = doc_to_pcen(doc)
        residuals.append(pcen_adjacency_residual(pcen))
        assert residuals[-1] == _adjacency_reference(pcen)
    assert residuals[0] < 1e-9 < residuals[1]


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


def _pcen_3x3():
    """A PCEN over a 3x3 circular net whose element at (2, 2) is missing."""
    net = _circular_net(np.random.default_rng(7), (3, 3))
    pcen = pcen_from_circular(net, _initial_element(net))
    present = pcen.present.copy()
    present[2, 2] = False
    return PCEN(net, pcen.points, pcen.functionals, present)


@pytest.mark.parametrize("call, error, message", [
    (lambda: contact_element(_hp(1.0, 0.0, 2.0, 0.0), _sphere_c()), GeometryError,
     "point is not on the sphere"),
    (lambda: _pcen_3x3()[2, 2], KeyError, r"\(2, 2\)"),
    (lambda: _pcen_3x3()[3, 0], KeyError, r"\(3, 0\)"),
    (lambda: _pcen_3x3()[0, -1], KeyError, r"\(0, -1\)"),
    (lambda: pcen_from_circular(evolve_net_complex([0.5, 1j], [2.0], -1.0), None),
     GeometryError, "^circular base must be an hp1 net$"),
    (lambda: pcen_from_complex_cr(_sphere_c(), _circular_net(np.random.default_rng(3), (2, 2))),
     GeometryError, "^complex cross-ratio base must be a cp1 net$"),
    (lambda: shared_sphere(_pcen_3x3()[0, 0], _pcen_3x3()[1, 1]), GeometryError,
     "^elements do not intersect in a common sphere$"),
], ids=["contact-element-off-the-sphere", "missing-element", "outside-the-box", "negative-index",
        "circular-pcen-over-a-cp1-net", "complex-pcen-over-an-hp1-net",
        "diagonal-elements-share-no-sphere"])
def test_contact_refusals(call, error, message):
    # the sphere e1 ^ e2 is C + infinity in H, which 1 + 2j is off; a PCEN
    # has no element where its present mask is false or outside its box
    with pytest.raises(error, match=message):
        call()


def test_a_pcen_counts_and_lists_its_present_elements():
    pcen = _pcen_3x3()
    assert len(pcen) == 8
    assert list(pcen) == [idx for idx in np.ndindex(3, 3) if idx != (2, 2)]
    assert (2, 2) not in pcen and (0, 0) in pcen
