import contextlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistnets import nets, xratio
from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    is_decomposable,
    normalize_proj,
    normalize_rows,
    proj_distance,
    proj_distance_rows,
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
from twistnets.xratio import INF, as_ext, complex_cr, quat_cr, quat_fourth_point, cross_det
from twistnets.contact import (
    contact_element,
    pcen_adjacency_residual,
    pcen_face_closure,
    pcen_from_circular,
)
from twistnets.nets import (
    LatticeNet,
    bianchi_check,
    edge_transfer_matrix,
    evolve_net_circular,
    evolve_net_complex,
    face_planarity,
    face_vectors,
    hexahedron_complete,
    holonomy,
    is_conic_net,
    lift_to_QS2,
    project_from_QS2,
    sphere_frame,
)

from complex_fibers import complex_face_ratios, random_hp1_net


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
    # a zero point has no norm to divide by
    for at in (0, 4, 6):
        points = [phi] * 7
        points[at] = np.zeros(6, dtype=complex)
        with pytest.raises(GeometryError, match=r"^cannot normalize \(near-\)zero homogeneous"):
            hexahedron_complete(*points)


@pytest.mark.parametrize("scale", [1e155, 1e300, 1e-10, 3j])
def test_hexahedron_ignores_the_scale_of_a_point(scale):
    # the eighth point of a scaled cube; a square of 1e155 used to overflow
    # (a RuntimeWarning, an error here, and a wrong point or exit 2 in the CLI)
    rng = np.random.default_rng(7)
    cube = list(_random_real_cube(rng))
    want = hexahedron_complete(*cube)
    for at in range(7):
        scaled = cube[:at] + [cube[at] * scale] + cube[at + 1:]
        assert proj_distance(hexahedron_complete(*scaled), want) < 1e-12


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


@pytest.mark.parametrize("spread", [1e-2, 1e-3, 1e-4, 3e-5])
def test_hexahedron_completes_a_cube_with_a_narrow_face(spread):
    # phi12 and phi13 within spread of phi1: the face {phi1, phi12, phi13}
    # has s3 / s1 about spread, far above the relative rank cut of the plane
    # rule, which an absolute cut on the face's volume used to refuse.  The
    # worst s4 / s1 of a face through the eighth vertex, 3.3e-16 over 3,200
    # such cubes, sets the bound.
    rng = np.random.default_rng(23)

    def point():
        return rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def coeff():
        return complex(*rng.standard_normal(2))

    worst = 0.0
    for _ in range(200):
        phi, p1, p2, p3 = (point() for _ in range(4))
        p12 = p1 + spread * (coeff() * phi + coeff() * p2)
        p13 = p1 + spread * (coeff() * phi + coeff() * p3)
        p23 = coeff() * phi + coeff() * p2 + coeff() * p3
        x = hexahedron_complete(phi, p1, p2, p3, p12, p13, p23)
        faces = np.array([[p1, p12, p13, x], [p2, p12, p23, x], [p3, p13, p23, x]])
        worst = max(worst, span_ratios(normalize_rows(faces))[:, 1].max())
    assert worst < 1e-14


# ---------------------------------------------------------------------------
# curve evolution


def test_evolve_circular_faces():
    rng = np.random.default_rng(2)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(6)]
    seed = _hp(*rng.standard_normal(4))
    lam = -1.5
    net = evolve_net_circular(curve, [seed], lam)
    for k in range(5):
        cr = quat_cr(curve[k + 1], curve[k], net[k, 1], net[k + 1, 1])
        assert cr.isclose(Quaternion.from_real(lam), 1e-8)


def test_evolve_circular_degenerate_lambda():
    rng = np.random.default_rng(3)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(3)]
    with pytest.raises(GeometryError,
                       match=r"^degenerate step in row 1: degenerate lambda at edge 0$"):
        evolve_net_circular(curve, [curve[0]], 1.0)


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


@pytest.mark.parametrize("lam", [0.5 + 1j, -0.7])
@pytest.mark.parametrize("z", [2e154, 1e160, 1e300])
def test_a_far_cp1_point_lifts_as_the_same_point_nearer_one(z, lam):
    # the wedge of [z : 1]'s lifts has size |z|^2; the pair is scaled by a
    # power of two first, so it lifts as [1 : 1/z] does
    net = evolve_net_complex([z, 1.0, 1j], [0.3 - 0.2j, -0.4 + 0.9j, 1.1 + 0.5j], lam)
    near = LatticeNet(net.shape, "cp1", data=net.data.copy())
    near.data[0, 0] = (1.0, 1.0 / z)
    far, near = (lift_to_QS2(_default_sphere(), n, lam) for n in (net, near))
    assert proj_distance_rows(far.data, near.data).max() < 1e-15
    assert all(r.planarity < 1e-8 for r in is_conic_net(far))


@pytest.mark.parametrize("lam", [0.5 + 1j, -0.7])
@pytest.mark.parametrize("k", [-1000, -500, -40, -20, -1, 0, 1, 20, 500, 1000])
def test_a_cp1_net_lifts_as_itself_at_any_power_of_two(k, lam):
    # the wedge of the lifts has size |z|^2: from a scale of 1e-6 down it fell
    # under the zero cut, and the net was refused as a zero vector
    net = _complex_net(np.random.default_rng(30), lam, (4, 4))
    scaled = LatticeNet(net.shape, "cp1", data=net.data * 2.0 ** k)
    assert np.array_equal(scaled.data * 2.0 ** -k, net.data)
    want = lift_to_QS2(_default_sphere(), net, lam).data
    assert np.array_equal(lift_to_QS2(_default_sphere(), scaled, lam).data, want)


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


def test_a_hypercube_in_a_plane_has_planar_faces_and_no_completion():
    # sixteen points of a 3-dim subspace of C^4: every face is planar, and
    # no 3-cube through the far corner completes, which bianchi_check reports
    rng = np.random.default_rng(12)
    basis = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    cube = {key: rng.standard_normal(3) @ basis for key in itertools.product((0, 1), repeat=4)}
    assert bianchi_check(cube) is False


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


@pytest.mark.parametrize("lam", [0.0, 1.0, 1e-12, 1 + 1e-12])
def test_holonomy_refuses_a_cross_ratio_at_0_or_1(lam):
    # at 1 every transfer matrix is singular, at 0 a multiple of the
    # identity; before, holonomy returned a matrix for each
    curve = [complex(*z) for z in np.random.default_rng(16).standard_normal((5, 2))]
    with pytest.raises(GeometryError, match=r"^degenerate cross-ratio value 0 or 1$"):
        holonomy(curve, lam)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_evolutions_and_holonomy_refuse_a_non_finite_cross_ratio(lam):
    # before, the evolutions returned NaN nets and holonomy reported an
    # overflow
    rng = np.random.default_rng(17)
    curve = [_hp(*rng.standard_normal(4)) for _ in range(3)]
    zs = [complex(*z) for z in rng.standard_normal((4, 2))]
    row = "degenerate step in row 1: "
    for build, prefix in ((lambda: evolve_net_circular(curve, curve[:2], lam), row),
                          (lambda: evolve_net_complex(zs, zs[:2], lam), row),
                          (lambda: holonomy(zs, lam), "")):
        with pytest.raises(GeometryError) as got:
            build()
        assert str(got.value).startswith(prefix + "degenerate cross-ratio value ")


@pytest.mark.parametrize("k", [-700, 700])
def test_complex_evolution_of_pairs_at_any_power_of_two(k):
    # the stored boundary is each pair as ExtC scales it and every evolved
    # point has the bits of the evolution at unit scale; before, the net of
    # pairs at 2^-700 failed with coincident points and at 2^700 held NaN
    rng = np.random.default_rng(45)
    curve, seeds = ([complex(*z) for z in rng.standard_normal((n, 2))] for n in (5, 4))
    s = math.ldexp(1.0, k)
    want = evolve_net_complex(curve, seeds, 0.3 + 0.7j)
    got = evolve_net_complex(*([xratio.ExtC(z * s, s) for z in zs] for zs in (curve, seeds)),
                             0.3 + 0.7j)
    assert np.array_equal(got.data[1:, 1:], want.data[1:, 1:])
    assert all(got[idx].isclose(want[idx], 1e-15) for idx in got.indices())


def test_the_complex_evolution_tests_lambda_at_most_once_per_row():
    rng = np.random.default_rng(18)
    curve, seeds = ([complex(*z) for z in rng.standard_normal((n, 2))] for n in (12, 11))
    calls, check = [], xratio.check_cross_ratio

    def counted(lam):
        calls.append(lam)
        return check(lam)
    with pytest.MonkeyPatch.context() as patch:
        for module in (nets, xratio):
            patch.setattr(module, "check_cross_ratio", counted)
        assert evolve_net_complex(curve, seeds, 0.3 + 0.7j).shape == (12, 12)
        assert 1 <= len(calls) <= 11
        # a net without a face has no fourth point, and tests no lambda
        calls.clear()
        assert evolve_net_complex(curve[:1], seeds, 1.0).shape == (1, 12)
        assert calls == []


def test_net_indexing_and_faces():
    net = LatticeNet((2, 2), "cp1")
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


def _evolve_circular(curve, seed: HPoint, lambdas) -> list:
    """One row of the real cross-ratio evolution, point by point: the
    row-by-row evolution that evolve_net_circular replaced (a test-only
    copy, the reference of its nets and of its error messages)."""
    lambdas = [float(lam) for lam in lambdas]
    if len(lambdas) != len(curve) - 1:
        raise GeometryError("need one lambda per curve edge")
    out = [seed]
    for k, lam in enumerate(lambdas):
        if lam in (0.0, 1.0):
            raise GeometryError(f"degenerate lambda at edge {k}")
        out.append(quat_fourth_point(curve[k + 1], curve[k], out[k], Quaternion.from_real(lam)))
    return out


def _row_by_row(curve, seeds, lam):
    """The circular net as rows of _evolve_circular, rows[n][m] = net[m, n]."""
    rows = [list(curve)]
    for r, seed in enumerate(seeds):
        try:
            rows.append(_evolve_circular(rows[-1], seed, [lam] * (len(curve) - 1)))
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
    _evolve_circular, with any number of boundary points at infinity (at_inf
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


@contextlib.contextmanager
def _kernel_calls():
    """A list that gets one entry per call of fourth_points_on_frames, from
    nets and from xratio's quat_fourth_points alike."""
    calls, kernel = [], xratio.fourth_points_on_frames

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    with pytest.MonkeyPatch.context() as patch:
        for module in (nets, xratio):
            patch.setattr(module, "fourth_points_on_frames", counted)
        yield calls


def _evolve_or_message(evolve, curve, seeds, lam):
    try:
        return evolve(curve, seeds, lam), None
    except GeometryError as exc:
        return None, str(exc)


def test_wavefront_names_the_first_of_several_degenerate_faces():
    # row 1 is 0, 0, 0 up to (4, 1), whose face has p1 = p2 = 1, on
    # anti-diagonal 5; the face of (1, 2), in row 2, has p1 = p2 = 0 on
    # anti-diagonal 3, and the faces of (2, 2), (3, 2) and (4, 2) read its
    # stand-in vertex and are flagged too, on diagonals 4 to 6; rows 3 and 4
    # and the last curve point add faces downstream of all of them
    rng = np.random.default_rng(20)
    zero, one = _hp(0, 0, 0, 0), _hp(1, 0, 0, 0)
    curve = [zero, HPoint.infinity(), zero, one, one, _hp(*rng.standard_normal(4))]
    seeds = [zero, one] + [_hp(*rng.standard_normal(4)) for _ in range(2)]
    _, want = _evolve_or_message(_row_by_row, curve, seeds, -1.0)
    with _kernel_calls() as calls:
        _, got = _evolve_or_message(evolve_net_circular, curve, seeds, -1.0)
    assert got == want == "degenerate step in row 1: coincident points p1 and p2"
    # one kernel call per anti-diagonal 2, ..., 9, and no rerun
    assert len(calls) == 8


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(2, 6),
       st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, None]), min_size=11, max_size=11),
       st.sampled_from([-1.0, 2.0, 0.5, -3.0]))
def test_wavefront_names_the_row_by_row_failure_among_many(width, height, values, lam):
    """Boundaries on the real line from 0, 1, 2, -1 and infinity (None)
    make coincident faces in any number and any rows, and faces downstream
    of them; the wavefront names the face that the row-by-row evolution
    fails on, with one kernel call per anti-diagonal."""
    points = [HPoint.infinity() if v is None else _hp(v, 0, 0, 0)
              for v in values[:width + height - 1]]
    curve, seeds = points[:width], points[width:]
    rows, want = _evolve_or_message(_row_by_row, curve, seeds, lam)
    with _kernel_calls() as calls:
        net, got = _evolve_or_message(evolve_net_circular, curve, seeds, lam)
    assert got == want and len(calls) == width + height - 3
    if net is not None:
        _assert_matches_rows(net, rows)


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
        want = HPoint(Quaternion(z.num.real, z.num.imag), Quaternion(z.den.real, z.den.imag))
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
    fresh = LatticeNet(net.shape, "hp1", data=net.data.copy())
    for base, axes in net.faces():
        assert face_planarity(net, base, axes) == face_planarity(fresh, base, axes)
    # a write that completes faces makes them readable, and the others keep
    # their values
    hole = LatticeNet(net.shape, "hp1")
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
    """evolve_net_circular on its vertex-indexed frame store gives the net of
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


@pytest.mark.parametrize("width, height", [(1000, 2), (2, 1000)])
def test_circular_evolution_works_in_memory_bounded_by_the_net(width, height):
    """The frame store holds one frame per vertex.  Both nets peak at about
    0.8 MB (tracemalloc), with 0.13 MB of values; a store of (M + N - 1) x M
    frames took 130 MB for the 1000 x 2 net."""
    rng = np.random.default_rng(30)
    points = [_hp(*rng.standard_normal(4)) for _ in range(width + height - 1)]
    # a small net first, so that one-time allocations stay out of the count
    evolve_net_circular(points[:3], points[3:5], -0.7)
    tracemalloc.start()
    try:
        net = evolve_net_circular(points[:width], points[width:], -0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.data.nbytes == 128_000 and peak < 2_000_000


@pytest.mark.parametrize("width, height", [(1000, 2), (2, 1000)])
def test_the_circular_pipeline_works_in_memory_bounded_by_the_net(width, height):
    """The first face_planarity, face_vectors, pcen_from_circular,
    pcen_face_closure and pcen_adjacency_residual on each net each peak
    under 3 MB (tracemalloc): 1.1 to 2.3 MB with the faces and edges read
    from box_cells, 0.7 to 2.1 MB with the per-axis slices before it."""
    rng = np.random.default_rng(31)
    points = [_hp(*rng.standard_normal(4)) for _ in range(width + height - 1)]
    direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def steps(net):
        initial = contact_element(net[0, 0], normalize_proj(wedge(net[0, 0].lift(), direction)))
        pcen = []
        return [lambda: face_planarity(net, (0, 0), (0, 1)), lambda: face_vectors(net),
                lambda: pcen.append(pcen_from_circular(net, initial)),
                lambda: pcen_face_closure(pcen[0]), lambda: pcen_adjacency_residual(pcen[0])]

    # a small net first, so that one-time allocations stay out of the count
    for step in steps(evolve_net_circular(points[:3], points[3:5], -0.7)):
        step()
    net = evolve_net_circular(points[:width], points[width:], -0.7)
    peaks = []
    tracemalloc.start()
    try:
        for step in steps(net):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            step()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 5 and max(peaks) < 3_000_000


@pytest.mark.parametrize("k", [-60, -700])
def test_a_net_of_a_boundary_pair_at_any_scale_reads_as_the_unit_one(k):
    """A net whose corner is [q 2^k : 2^k] is the net of [q : 1] bit for bit:
    lifts, interior vertices, face ratios, PCEN, closure and adjacency.
    Before, the pair was stored as given, and face_planarity and
    pcen_from_circular raised at its lift (under the 1e-12 zero cut)."""
    rng = np.random.default_rng(23)
    points = [_hp(*rng.standard_normal(4)) for _ in range(11)]
    q, s = points[0].affine(), Quaternion(math.ldexp(1.0, k))
    direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def readings(corner):
        net = evolve_net_circular([corner] + points[1:6], points[6:], -0.8)
        initial = contact_element(net[0, 0], normalize_proj(wedge(net[0, 0].lift(), direction)))
        pcen = pcen_from_circular(net, initial)
        return (net.lifts(), net.data[1:, 1:],
                [face_planarity(net, base, axes) for base, axes in net.faces()],
                pcen.points, pcen.functionals, pcen_face_closure(pcen), pcen_adjacency_residual(pcen))

    for got, want in zip(readings(HPoint(q * s, s)), readings(HPoint(q, Quaternion.one()))):
        assert np.array_equal(got, want)


def test_a_write_after_every_cache_is_built_changes_every_reading():
    """A write drops both caches of a net: lifts() and planarity_lists().
    After it, face_planarity, ambient(), pcen_from_circular and the
    planarity report's ratios read as on a fresh net with the same values,
    and differ from before."""
    rng = np.random.default_rng(21)
    points = [_hp(*rng.standard_normal(4)) for _ in range(9)]
    net = evolve_net_circular(points[:5], points[5:], -1.2)
    sphere = normalize_proj(wedge(net[0, 0].lift(), rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4)))
    initial = contact_element(net[0, 0], sphere)

    def readings(net):
        return (net.lifts().copy(), face_planarity(net, (1, 1), (0, 1)), net.ambient().copy(),
                pcen_from_circular(net, initial).points, span_ratios(face_vectors(net)[1]))

    net.lifts(), net.planarity_lists()
    before = readings(net)
    net[2, 2] = _hp(*rng.standard_normal(4))
    after = readings(net)
    fresh = readings(LatticeNet(net.shape, "hp1", data=net.data.copy()))
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
    net = LatticeNet(shape, kind)
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
        # the planarity report's reading: one stacked decomposition
        assert span_ratios(vecs).tolist() == [
            span_ratios(net.ambient()[i]).tolist() for i in idx]


def _faces_reference(net):
    """LatticeNet.faces() as a generator over the box's indices, before the
    faces came from box_cells (a test-only copy)."""
    pairs = list(itertools.combinations(range(net.dim), 2))
    for idx in net.indices():
        for a, b in pairs:
            if idx[a] + 1 < net.shape[a] and idx[b] + 1 < net.shape[b]:
                yield idx, (a, b)


def _face_corners_reference(arr, dim, a, b):
    """arr (box + tail) at the four corners of every face along the axes
    a < b, by slices (a test-only copy)."""
    def corner(da, db):
        cut = [slice(None)] * dim
        cut[a] = slice(da, da + arr.shape[a] - 1)
        cut[b] = slice(db, db + arr.shape[b] - 1)
        return arr[tuple(cut)]
    return np.stack([corner(da, db) for da, db in ((0, 0), (1, 0), (1, 1), (0, 1))], axis=dim)


def _face_vectors_reference(net):
    """face_vectors before box_cells: the faces of each axis pair by slices,
    put in faces() order by an argsort (a test-only copy)."""
    faces = list(_faces_reference(net))
    if not faces:
        net.ambient()
        return faces, np.zeros((0, 4, 6), dtype=complex)
    pairs = list(itertools.combinations(range(net.dim), 2))
    flat = np.arange(net.present.size).reshape(net.shape)
    order = np.argsort(np.concatenate([
        _face_corners_reference(flat, net.dim, a, b)[..., 0].ravel() * len(pairs) + p
        for p, (a, b) in enumerate(pairs)]))
    complete = np.concatenate([_face_corners_reference(net.present, net.dim, a, b)
                               .all(axis=-1).ravel() for a, b in pairs])[order]
    if not complete.all():
        _face_index_reference(net, *faces[int(np.argmin(complete))])
    amb = net.ambient()
    return faces, np.concatenate([
        _face_corners_reference(amb, net.dim, a, b).reshape(-1, 4, amb.shape[-1])
        for a, b in pairs])[order]


@pytest.mark.parametrize("kind, shape", [
    ("hp1", (3, 0, 2)), ("q4", (0,)), ("hp1", (5,)), ("q4", (0, 3, 2, 2)), ("cp3", (2, 2, 2, 2)),
    ("hp1", (3, 1, 2, 3)), ("q4", (2, 3, 1, 2)),
])
@pytest.mark.parametrize("missing", [0.0, 0.1])
def test_faces_of_boxes_the_property_test_does_not_draw(kind, shape, missing):
    """A box with an empty axis, with one axis, and with four axes: faces()
    and face_vectors read as the generator and the argsort did, and every
    face's ratio is that of its own decomposition."""
    rng = np.random.default_rng(sum(shape) + 10 * len(shape) + int(100 * missing))
    net = _random_net(kind, shape, missing, False, rng)
    faces = list(net.faces())
    assert faces == list(_faces_reference(net))
    try:
        want_faces, want = _face_vectors_reference(net)
    except GeometryError as exc:
        with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
            face_vectors(net)
    else:
        got_faces, got = face_vectors(net)
        assert got_faces == want_faces
        assert got.tobytes() == want.tobytes() and (not faces or got.shape == want.shape)
    for base, axes in faces:
        try:
            want = _planarity_reference(net, base, axes)
        except GeometryError as exc:
            with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
                face_planarity(net, base, axes)
        else:
            assert face_planarity(net, base, axes) == want


def test_face_planarity_never_wraps_an_index():
    rng = np.random.default_rng(18)
    net = _random_net("hp1", (3, 3), 0.0, False, rng)
    for base, missing in (((-1, 0), (-1, 0)), ((0, -1), (0, -1)), ((2, 0), (3, 0)),
                          ((1, 2), (2, 3)), ((0, 0, 0), (0, 0, 0))):
        with pytest.raises(GeometryError, match=f"^vertex {re.escape(str(missing))} missing"):
            face_planarity(net, base, (0, 1))
    with pytest.raises(GeometryError, match="not an increasing pair"):
        face_planarity(net, (0, 0), (1, 0))



@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(2, 5), min_size=2, max_size=3), st.sampled_from([0.0, 0.1, 0.3]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_hp1_face_ratios_on_the_real_section_are_those_of_the_complex_fibers(shape, missing,
                                                                             on_circle, seed):
    # an hp1 net's faces are decomposed as real 6-vectors; the complex
    # fibers, phase-normalized, are the reference.  Bound: over 1,500 such
    # nets a face's ratio moved by at most 1.9e-16 on a circle and 5.0e-16
    # off it
    net = random_hp1_net(np.random.default_rng(seed), tuple(shape), missing, on_circle)
    assert net.ambient().dtype == float
    for (base, axes), want in zip(net.faces(), complex_face_ratios(net)[:, 1].tolist()):
        if math.isnan(want):
            with pytest.raises(GeometryError, match=r"^vertex \(.*\) missing from net$"):
                face_planarity(net, base, axes)
            continue
        got = face_planarity(net, base, axes)
        assert abs(got - want) < 1.5e-15
        assert got < 1e-14 or not on_circle


def test_complex_evolution_needs_a_curve_point():
    with pytest.raises(GeometryError, match="complex evolution needs a curve point"):
        evolve_net_complex([], [1j], 0.5)


def _cp1_curve():
    """A complete 1-dim cp1 net of three points."""
    return LatticeNet((3,), "cp1", data=np.array([[0.5, 1.0], [1j, 1.0], [-2.0, 1.0]],
                                                     dtype=complex))


@pytest.mark.parametrize("call, message", [
    (lambda: holonomy([0.5, 2.0], -1.0), "closed curve needs at least three distinct points"),
    (lambda: lift_to_QS2(twistor_fiber(_hp(1.0, 0.0, 0.0, 0.0)), _cp1_curve()),
     "S must be a sphere lift, not a twistor fiber"),
    (lambda: lift_to_QS2(_default_sphere(), LatticeNet((2,), "hp1", data=np.array(
        [[[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]] * 2))), "lift expects a cp1 net"),
    (lambda: lift_to_QS2(_default_sphere(), _cp1_curve(), 0.4 + 0.9j),
     "complex-lambda lift needs a 2-dim net"),
    (lambda: LatticeNet((3,), "hp2"), "unknown net kind 'hp2'"),
    (lambda: _cp1_curve().lifts(), "cp1 nets have no twistor lifts"),
    (lambda: evolve_net_circular([], [], -1.0), "circular evolution needs a curve point"),
    (lambda: project_from_QS2(_default_sphere(), _cp1_curve()), "projection expects a q4 net"),
    (lambda: project_from_QS2(_default_sphere(), LatticeNet((1,), "q4", data=np.array(
        [normalize_proj(wedge(*np.eye(4, dtype=complex)[[1, 3]]))]))),
     "value at (0,) is not a line through S"),
    (lambda: bianchi_check({}), "hypercube vertex (0, 0, 0, 0) missing"),
    (lambda: lift_to_QS2(_default_sphere(), LatticeNet((2,), "cp1")),
     "vertex (0,) missing from net"),
], ids=["holonomy-of-two-points", "lift-on-a-fiber", "lift-of-an-hp1-net",
        "complex-lift-of-a-curve", "unknown-kind", "lifts-of-a-cp1-net",
        "circular-evolution-of-no-curve", "projection-of-a-cp1-net",
        "projection-of-a-line-off-the-sphere", "hypercube-without-vertices",
        "lift-of-an-empty-net"])
def test_nets_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()
