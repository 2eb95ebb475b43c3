import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    is_decomposable,
    normalize_proj,
    normalize_rows,
    proj_distance,
    quadric_pair,
    span_ratios,
    wedge,
)
from twistnets.twistor import (
    HPoint,
    coincident_rows,
    is_j_real,
    j_on_vector,
    pair_rows,
    quat_pairs,
    twistor_fiber,
)
from twistnets.xratio import INF, as_ext, complex_cr, quat_cr, cross_det
from twistnets.contact import contact_element, pcen_from_circular
from twistnets.nets import (
    LatticeNet,
    bianchi_check,
    edge_transfer_matrix,
    evolve_circular,
    evolve_net_circular,
    evolve_net_complex,
    face_planarity,
    face_span_ratios,
    face_vectors,
    hexahedron_complete,
    holonomy,
    is_conic_net,
    lift_to_QS2,
    project_from_QS2,
    sphere_frame,
)


def _hp(w, x, y, z):
    return HPoint.from_quaternion(Quaternion(w, x, y, z))


def _default_sphere():
    e = np.eye(4, dtype=complex)
    return normalize_proj(wedge(e[0], e[2]))


# ---------------------------------------------------------------------------
# hexahedron completion


def test_hexahedron_symmetric_cube():
    e = np.eye(4, dtype=complex)
    phi = wedge(e[0], e[1])
    p1, p2, p3 = wedge(e[0], e[2]), wedge(e[0], e[3]), wedge(e[1], e[2])
    p12, p13, p23 = phi + p1 + p2, phi + p1 + p3, phi + p2 + p3
    eighth = hexahedron_complete(phi, p1, p2, p3, p12, p13, p23)
    want = normalize_proj(2 * phi + p1 + p2 + p3)
    assert proj_distance(eighth, want) < 1e-10


def test_hexahedron_reality_preservation():
    # seven j-real vertices with planar faces complete to a j-real eighth
    rng = np.random.default_rng(0)
    for _ in range(20):
        cube = _random_real_cube(rng)
        eighth = hexahedron_complete(*cube)
        assert is_j_real(eighth, 1e-8)


def _random_real_cube(rng):
    """Seven j-real Q^4 vertices of a planar-faced cube (circular style)."""
    pts = {k: _hp(*rng.standard_normal(4)) for k in ("0", "1", "2", "3")}
    lam = {pair: float(rng.uniform(-3.0, -0.3)) for pair in ("12", "13", "23")}
    from twistnets.xratio import quat_fourth_point
    far = {}
    for a, b in (("1", "2"), ("1", "3"), ("2", "3")):
        far[a + b] = quat_fourth_point(pts[a], pts["0"], pts[b],
                                       Quaternion.from_real(lam[a + b]))
    fib = {k: twistor_fiber(p) for k, p in pts.items()}
    ffar = {k: twistor_fiber(p) for k, p in far.items()}
    return (fib["0"], fib["1"], fib["2"], fib["3"],
            ffar["12"], ffar["13"], ffar["23"])


def test_hexahedron_eighth_on_quadric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cube = _random_real_cube(rng)
        eighth = hexahedron_complete(*cube)
        assert abs(quadric_pair(eighth, eighth)) < 1e-8


def test_hexahedron_rejects_degenerate_span():
    e = np.eye(4, dtype=complex)
    phi = wedge(e[0], e[1])
    with pytest.raises(GeometryError):
        hexahedron_complete(phi, phi, phi, phi, phi, phi, phi)


def test_hexahedron_rejects_span_of_five_and_of_three():
    rng = np.random.default_rng(4)

    def point():
        return rng.standard_normal(4) + 1j * rng.standard_normal(4)

    a, b, p = point(), point(), point()
    # lines meeting the line a ^ b form the linear complex <., a ^ b> = 0,
    # so seven of them span five dimensions
    meeting = [wedge(a + rng.standard_normal() * b, point()) for _ in range(7)]
    with pytest.raises(GeometryError, match="more than four dimensions"):
        hexahedron_complete(*meeting)
    # lines through the common point p span three
    through = [wedge(p, point()) for _ in range(7)]
    with pytest.raises(GeometryError, match="fewer than four"):
        hexahedron_complete(*through)


def test_hexahedron_rejects_degenerate_face_and_planes_sharing_a_line():
    rng = np.random.default_rng(5)

    def point():
        return rng.standard_normal(4) + 1j * rng.standard_normal(4)

    phi, p1, p2, p3, x, y = (point() for _ in range(6))
    # phi1, phi12 and phi13 on one line: the first face plane is degenerate
    with pytest.raises(GeometryError, match="plane through point triple is degenerate"):
        hexahedron_complete(phi, p1, p2, p3, p1 + x, p1 - 2 * x, p2 + p3)
    # phi12, phi13 and phi23 on the line span{x, y}: all three face planes
    # contain that line
    with pytest.raises(GeometryError, match="planes-near-parallel"):
        hexahedron_complete(phi, p1, p2, p3, x, y, x + 3 * y)


# ---------------------------------------------------------------------------
# curve evolution


def test_evolve_circular_faces():
    rng = np.random.default_rng(2)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(6)]
    seed = _hp(*rng.standard_normal(4))
    lam = -1.5
    out = evolve_circular(curve, seed, [lam] * 5)
    for k in range(5):
        cr = quat_cr(curve[k + 1], curve[k], out[k], out[k + 1])
        assert cr.isclose(Quaternion.from_real(lam), 1e-8)


def test_evolve_circular_degenerate_lambda():
    rng = np.random.default_rng(3)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(3)]
    with pytest.raises(GeometryError):
        evolve_circular(curve, curve[0], [1.0, 1.0])


def test_circular_net_faces_concircular():
    rng = np.random.default_rng(4)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(5)]
    seeds = [_hp(*rng.standard_normal(4)) for _ in range(3)]
    net = evolve_net_circular(curve, seeds, -1.0)
    for base, axes in net.faces():
        assert face_planarity(net, base, axes) < 1e-10


def test_complex_net_face_cross_ratios():
    rng = np.random.default_rng(5)
    lam = 0.4 + 0.9j
    curve = [complex(*rng.standard_normal(2)) for _ in range(5)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(4)]
    net = evolve_net_complex(curve, seeds, lam)
    for base, axes in net.faces():
        z = net.face_vertices(base, axes)
        cr = complex_cr(z[1], z[0], z[3], z[2])
        assert cr.isclose(as_ext(lam), 1e-8)


# ---------------------------------------------------------------------------
# lifting into the sphere subquadric


def _complex_net(rng, lam, shape=(6, 6)):
    curve = [complex(*rng.standard_normal(2)) for _ in range(shape[0])]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(shape[1] - 1)]
    return evolve_net_complex(curve, seeds, lam)


def test_lift_faces_planar_for_complex_lambda():
    rng = np.random.default_rng(6)
    lam = 0.7 - 0.4j
    net = _complex_net(rng, lam)
    lifted = lift_to_QS2(_default_sphere(), net)
    for base, axes in lifted.faces():
        assert face_planarity(lifted, base, axes) < 1e-10
    for idx in lifted.indices():
        assert is_decomposable(lifted[idx], 1e-8)


def test_lift_project_roundtrip():
    rng = np.random.default_rng(7)
    lam = -0.3 + 1.2j
    net = _complex_net(rng, lam, shape=(4, 4))
    S = _default_sphere()
    back = project_from_QS2(S, lift_to_QS2(S, net))
    for idx in net.indices():
        assert back[idx].isclose(net[idx], 1e-9)


def test_lift_real_lambda_gives_fibers():
    rng = np.random.default_rng(8)
    net = _complex_net(rng, -2.0, shape=(4, 4))
    lifted = lift_to_QS2(_default_sphere(), net)
    for idx in lifted.indices():
        assert is_j_real(lifted[idx], 1e-8)


def test_conic_net_irreducible_faces():
    rng = np.random.default_rng(9)
    lam = 0.5 + 0.5j
    lifted = lift_to_QS2(_default_sphere(), _complex_net(rng, lam, (5, 5)))
    reports = is_conic_net(lifted)
    assert reports and all(r.irreducible for r in reports)


def test_real_lambda_lift_is_conic_too():
    # fibers of a concircular quadruple lie on the circle's conic section
    rng = np.random.default_rng(10)
    lifted = lift_to_QS2(_default_sphere(), _complex_net(rng, -1.0, (4, 4)))
    reports = is_conic_net(lifted)
    assert reports and all(r.irreducible for r in reports)


# ---------------------------------------------------------------------------
# four-dimensional consistency


def test_bianchi_consistency():
    rng = np.random.default_rng(11)
    cube = _random_real_hypercube(rng)
    assert bianchi_check(cube)
    bad = dict(cube)
    bad[(1, 1, 1, 1)] = normalize_proj(
        bad[(1, 1, 1, 1)] + 0.05 * bad[(0, 0, 0, 0)])
    assert not bianchi_check(bad)


def _random_real_hypercube(rng):
    from twistnets.xratio import quat_fourth_point

    pts = {(0, 0, 0, 0): _hp(*rng.standard_normal(4))}
    for a in range(4):
        idx = [0] * 4
        idx[a] = 1
        pts[tuple(idx)] = _hp(*rng.standard_normal(4))
    # face ratios must factorize for multidimensional consistency
    alpha = rng.uniform(0.4, 3.0, size=4) * np.array([1, -1, 1, -1])
    lam = {}
    for a in range(4):
        for b in range(a + 1, 4):
            lam[(a, b)] = float(alpha[a] / alpha[b])

    def fill(idx):
        ones = [a for a in range(4) if idx[a] == 1]
        if tuple(idx) in pts or len(ones) < 2:
            return
        a, b = ones[0], ones[1]
        base = list(idx)
        base[a] = 0
        base[b] = 0
        ia, ib = list(idx), list(idx)
        ia[b] = 0
        ib[a] = 0
        for j in (base, ia, ib):
            fill(j)
        pts[tuple(idx)] = quat_fourth_point(
            pts[tuple(ia)], pts[tuple(base)], pts[tuple(ib)],
            Quaternion.from_real(lam[(a, b)]))

    import itertools
    for idx in itertools.product((0, 1), repeat=4):
        fill(list(idx))
    return {k: twistor_fiber(p) for k, p in pts.items()}


# ---------------------------------------------------------------------------
# holonomy


def test_edge_transfer_determinant():
    rng = np.random.default_rng(12)
    for _ in range(20):
        z1 = as_ext(complex(*rng.standard_normal(2)))
        z2 = as_ext(complex(*rng.standard_normal(2)))
        lam = complex(*rng.standard_normal(2))
        m = edge_transfer_matrix(z1, z2, lam)
        want = cross_det(z1, z2) ** 2 * (1 - lam)
        assert abs(np.linalg.det(m) - want) < 1e-9 * max(1.0, abs(want))


def test_holonomy_eigenline_closes_evolution():
    rng = np.random.default_rng(13)
    curve = [complex(*rng.standard_normal(2)) for _ in range(6)]
    h, eigenlines, parabolic = holonomy(curve, -1.0)
    assert not parabolic
    from twistnets.nets import evolve_complex_cr
    closed = curve + [curve[0]]
    out = evolve_complex_cr(closed, eigenlines[0], -1.0)
    assert out[-1].isclose(out[0], 1e-8)


def test_holonomy_strips_duplicate_endpoint():
    rng = np.random.default_rng(14)
    curve = [complex(*rng.standard_normal(2)) for _ in range(5)]
    h1, _, _ = holonomy(curve, -1.0)
    h2, _, _ = holonomy(curve + [curve[0]], -1.0)
    assert np.allclose(h1, h2)


def test_net_indexing_and_faces():
    net = LatticeNet(2, (2, 2), "cp1")
    with pytest.raises(GeometryError):
        net[(0, 0)]
    net[0, 0] = as_ext(0.0)
    with pytest.raises(GeometryError):
        net[(5, 0)] = as_ext(1.0)
    assert not net.is_complete()
    with pytest.raises(GeometryError, match=r"vertex \(1, 0\) missing"):
        face_planarity(net, (0, 0), (0, 1))


# ---------------------------------------------------------------------------
# array storage and the wavefront evolution


def _row_by_row(curve, seeds, lam):
    """The circular net as rows of evolve_circular, rows[n][m] = net[m, n]."""
    rows = [list(curve)]
    for r, seed in enumerate(seeds):
        try:
            rows.append(evolve_circular(rows[-1], seed, [lam] * (len(curve) - 1)))
        except GeometryError as exc:
            raise GeometryError(f"degenerate step in row {r + 1}: {exc}") from exc
    return rows


def _assert_matches_rows(net, rows):
    for (m, n) in net.indices():
        got, want = twistor_fiber(net[m, n]), twistor_fiber(rows[n][m])
        assert proj_distance(got, want) < 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 9), max_size=10), st.floats(-4.0, 4.0))
def test_wavefront_matches_row_by_row_evolution(width, height, seed, at_inf, lam):
    """The anti-diagonal wavefront gives the net of the row-by-row
    evolve_circular, with any number of boundary points at infinity (at_inf
    indexes the curve, then the seeds), and fails where the rows fail,
    with the same message."""
    rng = np.random.default_rng(seed)
    points = [_hp(*rng.standard_normal(4)) for _ in range(width + height - 1)]
    for k in at_inf:
        if k < len(points):
            points[k] = HPoint.infinity()
    curve, seeds = points[:width], points[width:]
    try:
        rows = _row_by_row(curve, seeds, lam)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as got:
            evolve_net_circular(curve, seeds, lam)
        assert str(got.value) == str(exc)
        return
    net = evolve_net_circular(curve, seeds, lam)
    assert net.shape == (width, height) and net.is_complete()
    _assert_matches_rows(net, rows)


def test_wavefront_step_to_infinity():
    # B = (q2 - q3)(q1 - q2)^-1 lam = -1 exactly at the face of (1, 1), so
    # that vertex is the point at infinity, and the faces after it take each
    # of the three branches with one input at infinity
    curve = [_hp(0, 1, 0, 0), _hp(1, 0, 0, 0), _hp(0.5, 0.3, -0.2, 1.0)]
    seeds = [_hp(-1, 2, 0, 0), _hp(0.2, -0.7, 1.1, 0.4)]
    net = evolve_net_circular(curve, seeds, -1.0)
    assert net[1, 1].is_infinity()
    assert not any(net[idx].is_infinity() for idx in ((2, 1), (1, 2), (2, 2)))
    _assert_matches_rows(net, _row_by_row(curve, seeds, -1.0))
    assert max(face_planarity(net, base, axes) for base, axes in net.faces()) < 1e-10


def test_wavefront_reads_large_points_as_infinity():
    # at the face of (1, 1), 1 + B = 1 - 2 s is about 1e-10 in the affine
    # chart, so (1, 1) is [q : 1] with |q| near 5e9; on the lifts it is an
    # ordinary point next to infinity, and the faces after it need no branch
    s = 0.5 - 5e-11
    curve = [_hp(0, 0, 0, 0), _hp(1, 0, 0, 0), _hp(0.5, 0.3, -0.2, 1.0)]
    seeds = [_hp(s, 0, 0, 0), _hp(0.2, -0.7, 1.1, 0.4)]
    net = evolve_net_circular(curve, seeds, 2.0)
    a, b = (Quaternion(*q) for q in net.data[1, 1])
    assert 1e9 < (a * b.inverse()).norm() < 1e10
    _assert_matches_rows(net, _row_by_row(curve, seeds, 2.0))
    # with the seed (0, 2) at infinity too, the face of (1, 2) meets two
    # points next to or at infinity; the chart had no formula for it, and
    # on the lifts it is a face like any other
    seeds[1] = HPoint.infinity()
    net = evolve_net_circular(curve, seeds, 2.0)
    assert net.is_complete()
    assert max(face_planarity(net, base, axes) for base, axes in net.faces()) < 1e-10


def test_wavefront_names_the_first_degenerate_face_in_row_order():
    # row 1 is 0, 0, 0 up to (4, 1), whose face has p1 = p2 = 1, on
    # anti-diagonal 5; so the face of (1, 2) has p1 = p2 = 0, on anti-diagonal
    # 3, where the wavefront fails first; row 1 is named, and row 2 without
    # the last curve point
    zero, one = _hp(0, 0, 0, 0), _hp(1, 0, 0, 0)
    curve, seeds = [zero, HPoint.infinity(), zero, one, one], [zero, one]
    for curve, row in ((curve, 1), (curve[:4], 2)):
        with pytest.raises(GeometryError) as want:
            _row_by_row(curve, seeds, -1.0)
        with pytest.raises(GeometryError) as got:
            evolve_net_circular(curve, seeds, -1.0)
        assert str(got.value) == str(want.value) == \
            f"degenerate step in row {row}: coincident points p1 and p2"
    with pytest.raises(GeometryError, match="row 1: degenerate lambda at edge 0"):
        evolve_net_circular(curve[:2], seeds, 1.0)


def test_wavefront_rejects_a_repeated_random_curve_point():
    rng = np.random.default_rng(18)
    for _ in range(20):
        p, r, s0, s1 = (_hp(*rng.standard_normal(4)) for _ in range(4))
        with pytest.raises(GeometryError,
                           match=r"^degenerate step in row 1: coincident points p1 and p2$"):
            evolve_net_circular([p, p, r], [s0, s1], -1.0)


def test_wavefront_names_the_row_of_a_curve_point_given_at_two_scales():
    rng = np.random.default_rng(19)
    for _ in range(20):
        q, s = (Quaternion(*rng.standard_normal(4)) for _ in range(2))
        r, s0, s1 = (_hp(*rng.standard_normal(4)) for _ in range(3))
        with pytest.raises(GeometryError,
                           match=r"^degenerate step in row 1: coincident points p1 and p2$"):
            evolve_net_circular([HPoint.from_quaternion(q), HPoint(q * s, s), r], [s0, s1], -1.0)


def test_wavefront_passes_through_infinity_continuously():
    # the point at infinity is an ordinary point of the net: a boundary point
    # there and one at [1e8 : 1] give nets within 1e-7 of each other
    rng = np.random.default_rng(16)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(3)]
    seeds = [_hp(*rng.standard_normal(4)) for _ in range(2)]
    near = evolve_net_circular([curve[0], _hp(1e8, 0, 0, 0), curve[2]], seeds, -0.7)
    at = evolve_net_circular([curve[0], HPoint.infinity(), curve[2]], seeds, -0.7)
    for idx in at.indices():
        assert proj_distance(twistor_fiber(at[idx]), twistor_fiber(near[idx])) < 1e-7


def test_wavefront_on_complex_data_is_the_complex_evolution():
    # on C subset of H, with real lam, the circular net is the complex
    # cross-ratio net, also with a curve point at infinity
    rng = np.random.default_rng(17)
    curve = [complex(*rng.standard_normal(2)) for _ in range(4)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(3)]
    curve[1] = INF
    quat = [HPoint.infinity() if z is INF else _hp(z.real, z.imag, 0, 0) for z in curve]
    net = evolve_net_circular(quat, [_hp(z.real, z.imag, 0, 0) for z in seeds], -0.7)
    cnet = evolve_net_complex(curve, seeds, -0.7)
    for idx in net.indices():
        z = cnet[idx]
        want = HPoint(Quaternion.from_complex(z.num), Quaternion.from_complex(z.den))
        assert proj_distance(twistor_fiber(net[idx]), twistor_fiber(want)) < 1e-12


def test_write_after_planarity_drops_the_cached_fibers():
    rng = np.random.default_rng(15)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(4)]
    seeds = [_hp(*rng.standard_normal(4)) for _ in range(3)]
    net = evolve_net_circular(curve, seeds, -1.3)
    before = {base: face_planarity(net, base, axes) for base, axes in net.faces()}
    assert max(before.values()) < 1e-10
    net[1, 1] = _hp(*rng.standard_normal(4))
    for base, axes in net.faces():
        after = face_planarity(net, base, axes)
        if base in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert after > 1e-3
        else:
            assert after == before[base]
    # the write dropped the cached face ratios with the fibers: every face
    # reads as on a fresh net with the same values
    fresh = LatticeNet(2, net.shape, "hp1", data=net.data.copy())
    for base, axes in net.faces():
        assert face_planarity(net, base, axes) == face_planarity(fresh, base, axes)
    # a write that completes faces makes them readable, and the others keep
    # their values
    hole = LatticeNet(2, net.shape, "hp1")
    for idx in net.indices():
        if idx != (1, 1):
            hole[idx] = net[idx]
    with pytest.raises(GeometryError, match=r"^vertex \(1, 1\) missing from net$"):
        face_planarity(hole, (0, 0), (0, 1))
    assert face_planarity(hole, (2, 2), (0, 1)) == before[2, 2]
    hole[1, 1] = net[1, 1]
    for base, axes in net.faces():
        assert face_planarity(hole, base, axes) == face_planarity(fresh, base, axes)


def _fourth_points_reference(x1, x2, x3, lam):
    """quat_fourth_points as it computed before its rows moved onto stored
    frames (a test-only copy): the frame is stacked from the lifts."""
    x1, x2, x3 = (np.reshape(np.asarray(x, dtype=complex), (-1, 4)) for x in (x1, x2, x3))
    lam = np.asarray(lam, dtype=float)
    if (np.minimum(np.abs(lam), np.abs(lam - 1.0)) < 1e-9).any():
        raise GeometryError("degenerate cross-ratio value 0 or 1")
    x1j = j_on_vector(x1)
    if coincident_rows(x2, x1, x1j).any():
        raise GeometryError("coincident points p1 and p2")
    try:
        c = np.linalg.solve(np.stack([x1, x1j, x2, j_on_vector(x2)], axis=-1), x3[..., None])
    except np.linalg.LinAlgError:
        raise GeometryError("coincident points p1 and p2") from None
    return normalize_rows(x3 - lam[..., None] * (c[:, 0] * x1 + c[:, 1] * x1j))


def _evolve_by_gathers(curve, seeds, lam):
    """evolve_net_circular's data as computed before the frame store (a
    test-only copy): per anti-diagonal, p1, p2 and p3 gathered from a
    lattice of lifts by index lists, and each lift's j-image computed
    again on each diagonal that reads it."""
    curve, seeds, lam = list(curve), list(seeds), float(lam)
    m_n, n_n = len(curve), len(seeds) + 1
    rows = np.array([p.lift() for p in curve + seeds])
    lifts = np.zeros((m_n, n_n, 4), dtype=complex)
    lifts[:, 0], lifts[0, 1:] = rows[:m_n], rows[m_n:]
    try:
        for d in range(2, m_n + n_n - 1) if min(m_n, n_n) > 1 else ():
            m = np.arange(max(1, d - n_n + 1), min(d, m_n))
            lifts[m, d - m] = _fourth_points_reference(
                lifts[m, d - m - 1], lifts[m - 1, d - m - 1], lifts[m - 1, d - m], lam)
    except GeometryError:
        _row_by_row(curve, seeds, lam)
        raise
    pairs = pair_rows(lifts)
    pairs[:, 0], pairs[0, 1:] = quat_pairs(curve), quat_pairs(seeds)
    return pairs


# cross ratios within 1e-9 of 0 or 1, the cut, and just outside it
_NEAR_DEGENERATE_LAMBDAS = [0.0, 1.0, 5e-10, -9.9e-10, 1.0 + 3e-10, 1.0 - 9e-10, 1.2e-9,
                            1.0 - 1.5e-9]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["plain"] * 3 + ["twice", "lambda", "infinity", "thin"]),
       st.floats(-4.0, 4.0),
       st.integers(0, 12), st.integers(0, 12), st.sampled_from(_NEAR_DEGENERATE_LAMBDAS))
def test_frame_store_evolution_is_the_gathered_one_bit_for_bit(width, height, seed, case, lam,
                                                               at, other, near):
    """evolve_net_circular on its diagonal-major frame store gives the net of
    the per-diagonal loop it replaced bit for bit, and raises its messages
    on degenerate input: a boundary point given again at another scale, a
    cross ratio within 1e-9 of 0 or 1, boundary points at infinity, and
    nets of one row or one column."""
    rng = np.random.default_rng(seed)
    if case == "thin":
        # one curve point or no seeds, near-degenerate cross ratios included
        width, height, lam = (1, height, near) if other % 2 else (width, 1, near)
    qs = [Quaternion(*rng.standard_normal(4)) for _ in range(width + height - 1)]
    points = [HPoint.from_quaternion(q) for q in qs]
    at, other = at % len(points), other % len(points)
    if case == "twice":
        # [q s : s] is [q : 1], next to it on the boundary or anywhere
        s = Quaternion(*rng.standard_normal(4))
        points[(at + 1) % len(points) if other % 2 else other] = HPoint(qs[at] * s, s)
    elif case == "lambda":
        lam = near
    elif case == "infinity":
        points[at] = points[other] = HPoint.infinity()
    curve, seeds = points[:width], points[width:]
    try:
        want = _evolve_by_gathers(curve, seeds, lam)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as got:
            evolve_net_circular(curve, seeds, lam)
        assert str(got.value) == str(exc)
        return
    got = evolve_net_circular(curve, seeds, lam).data
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_write_after_every_cache_is_built_changes_every_reading():
    """A write drops all four caches of a net: lifts(), ambient(),
    face_ratios() and planarity_lists().  After it, face_planarity,
    ambient(), pcen_from_circular and the planarity report's ratios read
    as on a fresh net with the same values, and differ from before."""
    rng = np.random.default_rng(21)
    points = [_hp(*rng.standard_normal(4)) for _ in range(9)]
    net = evolve_net_circular(points[:5], points[5:], -1.2)
    sphere = normalize_proj(wedge(net[0, 0].lift(), rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4)))
    initial = contact_element(net[0, 0], sphere)

    def readings(net):
        return (net.lifts().copy(), face_planarity(net, (1, 1), (0, 1)), net.ambient().copy(),
                pcen_from_circular(net, initial).points, face_span_ratios(net)[1])

    net.lifts(), net.ambient(), net.face_ratios(), net.planarity_lists()
    before = readings(net)
    net[2, 2] = _hp(*rng.standard_normal(4))
    after = readings(net)
    fresh = readings(LatticeNet(2, net.shape, "hp1", data=net.data.copy()))
    for b, a, f in zip(before, after, fresh):
        assert np.array_equal(a, f)
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# face residuals: one cached decomposition against one per face


def _face_index_reference(net, base, axes):
    """LatticeNet.face_index as face_planarity used it per face before the
    ratios were cached (a test-only copy)."""
    idx = [[i] * 4 for i in base]
    for ax, steps in zip(axes, ((0, 1, 1, 0), (0, 0, 1, 1))):
        idx[ax] = [base[ax] + d for d in steps]
    corners = list(zip(*idx))
    if not all(c in net for c in corners):
        missing = next(c for c in corners if c not in net)
        raise GeometryError(f"vertex {missing} missing from net")
    return tuple(idx)


def _planarity_reference(net, base, axes):
    """One decomposition per face, as face_planarity computed it before."""
    return float(span_ratios(net.ambient()[_face_index_reference(net, base, axes)])[1])


def _random_net(kind, shape, missing, planar, rng):
    """A net of random values, with about a share `missing` of its vertices
    left out; planar draws cp3 and q4 values from one 3-dim subspace."""
    n = {"hp1": 8, "cp3": 4, "q4": 6}[kind]
    basis = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    net = LatticeNet(len(shape), shape, kind)
    for idx in net.indices():
        if rng.random() < missing:
            continue
        if planar and kind != "hp1":
            v = rng.standard_normal(3) @ basis
        else:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        net[idx] = HPoint(Quaternion(*v[:4].real), Quaternion(*v[4:].real)) \
            if kind == "hp1" else v
    return net


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["hp1", "q4", "cp3"]), st.lists(st.integers(1, 4), min_size=2, max_size=3),
       st.sampled_from([0.0, 0.1, 0.3]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_face_residuals_are_the_per_face_decomposition_bit_for_bit(kind, shape, missing,
                                                                   planar, seed):
    rng = np.random.default_rng(seed)
    net = _random_net(kind, tuple(shape), missing, planar, rng)
    faces = list(net.faces())
    # faces in random order: the first query builds every face's ratios
    for k in rng.permutation(len(faces)):
        base, axes = faces[k]
        try:
            want = _planarity_reference(net, base, axes)
        except GeometryError as exc:
            with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
                face_planarity(net, base, axes)
        else:
            got = face_planarity(net, base, axes)
            assert type(got) is float and got == want
    # the stacked face vectors, in net.faces() order, or the first face's
    # missing vertex
    try:
        idx = [_face_index_reference(net, base, axes) for base, axes in faces]
    except GeometryError as exc:
        with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
            face_vectors(net)
    else:
        got_faces, vecs = face_vectors(net)
        assert got_faces == faces
        if faces:
            want = net.ambient()[tuple(np.array(idx).transpose(1, 0, 2))]
            assert vecs.shape == want.shape and (vecs == want).all()


def test_face_planarity_never_wraps_an_index():
    rng = np.random.default_rng(18)
    net = _random_net("hp1", (3, 3), 0.0, False, rng)
    for base, missing in (((-1, 0), (-1, 0)), ((0, -1), (0, -1)), ((2, 0), (3, 0)),
                          ((1, 2), (2, 3)), ((0, 0, 0), (0, 0, 0))):
        with pytest.raises(GeometryError, match=f"^vertex {re.escape(str(missing))} missing"):
            face_planarity(net, base, (0, 1))
    with pytest.raises(GeometryError, match="not an increasing pair"):
        face_planarity(net, (0, 0), (1, 0))


def test_complex_evolution_needs_a_curve_point():
    with pytest.raises(GeometryError, match="complex evolution needs a curve point"):
        evolve_net_complex([], [1j], 0.5)
