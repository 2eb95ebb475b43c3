"""Property tests: the closed-form incidence kernel against SVD references.

The references are SVD constructions of the same objects: a plane's
functional as the null space of its spanning vectors, a line's spanning pair
as the singular vectors of its line matrix, and the meet of a plane
and a line as the null space of the plane's functional stacked with two
functionals that vanish on the line.  Inputs are kept away from degenerate
configurations (volume or meet size below 1e-2), where both sides lose
accuracy in proportion to the conditioning; the rank test is checked against
the singular-value rule on nearly dependent inputs too.  The rank decisions
of svd_rank, nullspace, orthonormal_span and is_conic_net are checked against
the singular values of a direct decomposition, on matrices whose singular
values lie within 1e-3...1e3 of the cut.  The exterior-algebra line kernel
(line_factorize, meet_join, plane_fiber, the ∧³ meet of hexahedron_complete
and rho) is checked against the null-space constructions it replaced, built
here from an SVD of the line matrix.  The batched kernels (propagate_elements,
span_planes, normalize_rows, lift_rows) are checked row by row against the
same references or against their one-vector counterparts, and the whole-array
PCEN checks against a single moved element.  pcen_from_circular is checked
against a copy of the loop it replaced, which called propagate_elements once
per column: the same errors, near-coincident neighbours included, each named
by the first vertex whose step fails and the vertex it comes from, the same
elements on well-separated nets, and residuals within twice that loop's.
The closed-form conic of a regulus (regulus_point) is checked against the
transversal construction it replaced: the two lines meeting the generators,
from the null space of their polar rows, with points scaled by least
squares.  steiner_fourth_point is checked for the 3D consistency of the
cross-ratio system on cubes, with labels that do not factor as a control,
and the circular nets of evolve_net_circular as the real section of its
Steiner evolution, with relabelled cross ratios as the control.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistnets.cli import doc_to_pcen, pcen_to_doc
from twistnets.contact import (
    PCEN,
    PENCIL_TOL,
    NullLine,
    _propagate,
    closure_faces,
    contact_element,
    fiber_matrices,
    pcen_adjacency_residual,
    pcen_face_closure,
    pcen_from_circular,
    propagate_element,
    propagate_elements,
)
from twistnets.lie import QuatHermitianForm, rho
from twistnets.nets import LatticeNet, evolve_net_circular, hexahedron_complete, is_conic_net
from twistnets.proj4 import (
    QUADRIC_MATRIX,
    GeometryError,
    line_factorize,
    line_matrix,
    line_meet_point,
    meet_join,
    meet_line,
    normalize_proj,
    normalize_rows,
    nullspace,
    orthonormal_pair,
    orthonormal_span,
    plane_from_span,
    proj_distance,
    proj_distance_rows,
    quadric_pair,
    quadric_roots,
    span_functional,
    span_planes,
    span_residual,
    svd_rank,
    wedge,
)
from twistnets.quat import Quaternion
from twistnets.twistor import (
    HPoint,
    fiber_pair,
    j_on_bivector,
    j_on_vector,
    lift_rows,
    plane_fiber,
    quat_pairs,
    twistor_fiber,
    twistor_project,
)
from twistnets.xratio import INF, as_ext, regulus_build, regulus_point, steiner_fourth_point

AGREE = 1e-12
WELL_POSED = 1e-2

settings.register_profile("kernel", max_examples=200, deadline=None,
                          derandomize=True, database=None)

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
vec4 = st.lists(coords, min_size=8, max_size=8).map(
    lambda x: np.array(x[:4]) + 1j * np.array(x[4:]))
quat = st.lists(st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
                min_size=4, max_size=4).map(lambda x: Quaternion(*x))
scalar = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
log_scale = st.floats(-14.0, 0.0).map(lambda e: 10.0 ** e)
# seeds of the unitary factors of test matrices, and offsets from a cut
rngs = st.integers(0, 2 ** 32 - 1).map(np.random.default_rng)
near_cut = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def _norm(v):
    return float(np.linalg.norm(v))


def _volume(*vectors):
    """Volume of the unit-scaled vectors (0 if one of them is zero)."""
    if min(_norm(v) for v in vectors) == 0.0:
        return 0.0
    return _norm(span_functional(*(v / _norm(v) for v in vectors)))


def _meet_size(functional, line):
    """How far a line is from lying in a plane: |f| on the line's unit pair."""
    v, w = line_factorize(line)
    return math.hypot(abs(functional @ v), abs(functional @ w))


def _svd_pair(a):
    """An orthonormal pair spanning a line: the two left singular vectors of
    its line matrix with nonzero singular value."""
    u, _, _ = np.linalg.svd(line_matrix(a))
    return u[:, 0], u[:, 1]


def _reference_meet(functional, line):
    """The meet of a plane and a line as a null space.

    The point is annihilated by the plane's functional and by two functionals
    that vanish on the line, the null space of the line's SVD factors.
    """
    v, w = _svd_pair(line)
    on_line = nullspace(np.array([v, w]))
    assert on_line.shape == (4, 2)
    ns = nullspace(np.vstack([functional, on_line.T]))
    assert ns.shape == (4, 1)
    return ns[:, 0]


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec4)
def test_span_functional_matches_nullspace(a, b, c):
    assume(_volume(a, b, c) > WELL_POSED)
    f = plane_from_span([a, b, c]).functional
    # the reference rows are unit-scaled, as _volume scales them
    ref = nullspace(np.array([v / _norm(v) for v in (a, b, c)]))
    assert ref.shape == (4, 1)
    assert proj_distance(f, ref[:, 0]) < AGREE


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec4, vec4, vec4)
def test_pair_meet_matches_null_space_meet(a, b, c, v, w):
    assume(_volume(a, b, c) > WELL_POSED)
    assume(_norm(v) > 0.0 and _norm(w) > 0.0)
    line = wedge(v, w)
    assume(_norm(line) > WELL_POSED * _norm(v) * _norm(w))
    plane = plane_from_span([a, b, c])
    assume(_meet_size(plane.functional, line) > WELL_POSED)
    ref = _reference_meet(plane.functional, line)
    got = meet_line(plane, line)
    assert proj_distance(got, ref) < AGREE
    # the meet is incident with both the plane and the line
    assert abs(plane.functional @ got) < AGREE
    assert span_residual(got, *orthonormal_pair(v, w)) < AGREE


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec4, vec4, log_scale, st.booleans())
def test_rank_test_matches_singular_value_rule(a, b, c, d, eps, fourth):
    """Nearly dependent vectors: raises exactly when the SVD rule says so."""
    assume(min(_norm(a), _norm(b), _norm(c), _norm(d)) > WELL_POSED)
    if fourth:
        # a fourth vector eps off the plane of the first three
        vectors = [a, b, c, a + b + eps * d]
    else:
        # a nearly collinear triple, eps from the line through a
        vectors = [a, a + eps * b, a + eps * c]
    rows = np.array([x / _norm(x) for x in vectors])
    s = np.linalg.svd(rows, compute_uv=False)
    # s3 / s1, and s4 / s1 for four vectors; skip ratios within rounding of
    # the cutoff
    ratios = s[2:] / s[0]
    assume(all(r == 0.0 or abs(math.log(r / 1e-9)) > 1e-3 for r in ratios))
    if not (ratios[0] > 1e-9 and all(r <= 1e-9 for r in ratios[1:])):
        with pytest.raises(GeometryError, match="degenerate-span"):
            plane_from_span(vectors)
        return
    f = plane_from_span(vectors).functional
    # the best-fitting plane leaves s4 (0 for three vectors); the plane of the
    # largest-volume triple leaves at most twice that
    smallest = ratios[1] * s[0] if fourth else 0.0
    assert _norm(rows @ f) <= 2.0 * smallest + AGREE


def test_meet_line_rejects_generic_bivector():
    plane = plane_from_span(np.eye(4)[:3])
    generic = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0], dtype=complex)  # e0^e1 + e2^e3
    with pytest.raises(GeometryError, match="not decomposable"):
        meet_line(plane, generic)


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, scalar, scalar)
def test_dependent_triple_is_degenerate_span(a, b, alpha, beta):
    c = alpha * a + beta * b
    # c must be in span{a, b} up to rounding: skip cancellation that leaves
    # only rounding error in c
    scale = abs(alpha) * _norm(a) + abs(beta) * _norm(b)
    assume(_norm(c) == 0.0 or _norm(c) > 1e-6 * scale)
    with pytest.raises(GeometryError, match="degenerate-span"):
        plane_from_span([a, b, c])


def _propagation_case(p, q, direction):
    """A contact element at p, the next base point q and the SVD reference
    of the element propagated to q, away from degenerate configurations.

    The reference takes the fiber's pair from its Pluecker vector by SVD and
    the new plane as the null space of an SVD-orthonormal basis.
    """
    p, q = HPoint.from_quaternion(p), HPoint.from_quaternion(q)
    assume(proj_distance(p.lift(), q.lift()) > WELL_POSED)
    # a sphere through p: a line through p's lift, off p's fiber
    assume(_volume(*fiber_pair(p), direction) > WELL_POSED)
    direction = direction / _norm(direction)
    element = contact_element(p, normalize_proj(wedge(p.lift(), direction)))
    fiber = twistor_fiber(q)
    assume(_meet_size(element.plane.functional, fiber) > WELL_POSED)
    ref_point = _reference_meet(element.plane.functional, fiber)
    v, w = _svd_pair(fiber)
    assume(_volume(v, w, element.point) > WELL_POSED)
    basis = orthonormal_span([v, w, element.point])
    assert basis.shape[1] == 3
    ref_plane = nullspace(basis.T, 1e-10)[:, 0]
    return element, q, ref_point, ref_plane


@settings(settings.get_profile("kernel"))
@given(quat, quat, vec4)
def test_propagate_matches_svd_reference(p, q, direction):
    element, q, ref_point, ref_plane = _propagation_case(p, q, direction)
    got = propagate_element(element, q)
    assert proj_distance(got.point, ref_point) < AGREE
    assert proj_distance(got.plane.functional, ref_plane) < AGREE


@settings(settings.get_profile("kernel"))
@given(st.lists(st.tuples(quat, quat, vec4), min_size=1, max_size=5))
def test_propagate_elements_matches_svd_reference_row_by_row(rows):
    cases = [_propagation_case(*row) for row in rows]
    points, functionals = propagate_elements(
        np.array([el.point for el, _, _, _ in cases]),
        np.array([el.plane.functional for el, _, _, _ in cases]),
        np.array([q.lift() for _, q, _, _ in cases]))
    assert points.shape == functionals.shape == (len(cases), 4)
    for (_, _, ref_point, ref_plane), x, f in zip(cases, points, functionals):
        assert proj_distance(x, ref_point) < AGREE
        assert proj_distance(f, ref_plane) < AGREE


@settings(settings.get_profile("kernel"))
@given(st.lists(st.tuples(vec4, vec4, vec4), min_size=1, max_size=4),
       vec4, vec4, vec4, log_scale, st.integers(0, 4))
def test_span_planes_decides_each_row_as_plane_from_span(triples, a, b, c, eps, at):
    """A nearly collinear triple, eps from the line through a, inside a
    stack of well-posed ones: the stack raises exactly when plane_from_span
    raises on that triple, with its message, and otherwise each row is that
    row's plane_from_span."""
    assume(all(_volume(*t) > WELL_POSED for t in triples))
    assume(min(_norm(a), _norm(b), _norm(c)) > WELL_POSED)
    triples.insert(min(at, len(triples)), (a, a + eps * b, a + eps * c))
    try:
        want = [plane_from_span(list(t)).functional for t in triples]
    except GeometryError as exc:
        with pytest.raises(GeometryError) as got:
            span_planes(np.array(triples))
        assert str(got.value) == str(exc)
        return
    got = span_planes(np.array(triples))
    for f, w in zip(got, want):
        # the same ∧³ functional or the same SVD; a volume down to 1e-4
        # leaves the closed form rounding error of 1e-16 / volume
        assert proj_distance(f, w) < 1e-10


@settings(settings.get_profile("kernel"))
@given(st.lists(st.tuples(quat, quat, vec4), min_size=2, max_size=4), st.integers(0, 3),
       vec4, vec4, st.booleans())
def test_coinciding_point_in_a_stack_raises_the_scalar_error(rows, at, u, w, half):
    """One row of a stack propagates an element to its own base point.  A
    contact element's plane holds that point's fiber (fiber-in-plane); a
    half-contact element's plane meets the fiber in the element's point
    alone, and the plane of the fiber and that point is degenerate."""
    cases = [_propagation_case(*row) for row in rows]
    at = min(at, len(cases) - 1)
    element = cases[at][0]
    if half:
        x = element.point
        assume(_volume(x, u, w) > WELL_POSED)
        element = NullLine(x, plane_from_span([x, u, w]))
        assume(element.plane.residual(j_on_vector(x)) > WELL_POSED)
    base = twistor_project(element.point)
    with pytest.raises(GeometryError) as want:
        propagate_element(element, base)
    assert str(want.value).startswith(
        "next point coincides with the element's point: degenerate-span" if half
        else "fiber-in-plane degeneracy: line-in-plane")
    elements = [el for el, _, _, _ in cases]
    elements[at] = element
    lifts = np.array([q.lift() for _, q, _, _ in cases])
    lifts[at] = base.lift()
    with pytest.raises(GeometryError) as got:
        propagate_elements(np.array([el.point for el in elements]),
                           np.array([el.plane.functional for el in elements]), lifts)
    assert str(got.value) == str(want.value)


@st.composite
def _element_row(draw):
    """A contact or half-contact element at a base point of scale 10^e,
    e in [-6, 6], and the unit lift of a next base point: a random point at
    another such scale, or one 1e-6 to 1e-1 from the element's point."""
    rng = draw(rngs)
    half, near = draw(st.booleans()), draw(st.booleans())
    scale, other = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2))
    step = 10.0 ** draw(st.floats(-6.0, -1.0))
    x = HPoint.from_quaternion(Quaternion(*(scale * rng.standard_normal(4)))).lift()
    u, w = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    plane = plane_from_span([x, u, w] if half else [x, j_on_vector(x), u])
    assume(half or plane.residual(j_on_vector(x)) < 1e-12)
    if near:
        q = x + step * u / _norm(u)
        lift = q / _norm(q)
    else:
        lift = HPoint.from_quaternion(Quaternion(*(other * rng.standard_normal(4)))).lift()
    return x, plane.functional, lift


@settings(settings.get_profile("kernel"))
@given(st.lists(_element_row(), min_size=1, max_size=5))
def test_a_step_keeps_its_new_points_in_their_planes(rows):
    """The step does not test NullLine's pencil condition |f @ x| < PENCIL_TOL
    (1e-7): it follows from the plane rule, which holds both rows of the
    fiber, and so the new point, within about 1.3e-9 of the new plane.  On
    10,000 rows drawn as here the worst |f @ x| was 1.2e-13, from the
    closed-form functional's rounding of about 1e-16 over its volume, which
    may be as small as 1e-4; the bound sits above that rounding."""
    points, functionals, lifts = (np.array(a) for a in zip(*rows))
    x, f = propagate_elements(points, functionals, lifts)
    assert np.abs((x * f).sum(axis=-1)).max() < 1e-11 < PENCIL_TOL


@functools.cache
def _pcen_24():
    """A PCEN over a 24x24 circular net."""
    rng = np.random.default_rng(24)
    points = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4))) for _ in range(47)]
    net = evolve_net_circular(points[:24], points[24:], -1.3)
    sphere = normalize_proj(wedge(net[0, 0].lift(), rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4)))
    return pcen_from_circular(net, contact_element(net[0, 0], sphere))


@settings(settings.get_profile("kernel"), max_examples=50)
@given(st.integers(0, 23), st.integers(0, 23))
def test_one_moved_element_shows_in_closure_and_adjacency(m, n):
    """Every element but those at (0, 0) and (23, 23), which start no face's
    propagation, feeds a face of the closure: moving its point by 1e-6
    inside its plane, off its fiber, raises both residuals above 1e-7 (the
    smallest over all elements of this net are 1.3e-7 and 5.7e-7)."""
    assume((m, n) not in ((0, 0), (23, 23)))
    pcen = _pcen_24()
    assert max(pcen_face_closure(pcen), pcen_adjacency_residual(pcen)) < 1e-12
    el = pcen[m, n]
    x, jx = el.point, j_on_vector(el.point)
    # the direction in the plane orthogonal to the fiber span{x, jx}
    plane_basis = nullspace(el.plane.functional.reshape(1, 4))
    off = next(d for d in plane_basis.T if span_residual(d, x, jx) > 0.5)
    off = off - x * np.vdot(x, off) - jx * np.vdot(jx, off)
    points = pcen.points.copy()
    points[m, n] = x + 1e-6 * off / _norm(off)
    moved = PCEN(pcen.base, points, pcen.functionals)
    assert pcen_face_closure(moved) > 1e-7
    assert pcen_adjacency_residual(moved) > 1e-7


def _propagate_route_by_route(points, functionals, lifts):
    """propagate_elements as computed before the fiber matrices: the meet
    v (f @ vj) - vj (f @ v) and the plane of span_planes, with their checks,
    row by row."""
    vj = j_on_vector(lifts)
    f = functionals
    x = lifts * (f * vj).sum(-1, keepdims=True) - vj * (f * lifts).sum(-1, keepdims=True)
    if (np.linalg.norm(x, axis=-1) < 1e-9 * np.linalg.norm(lifts, axis=-1) ** 2).any():
        raise GeometryError("fiber-in-plane degeneracy: line-in-plane: intersection is not a point")
    y = normalize_rows(x)
    try:
        f = span_planes(np.stack([lifts, vj, points], axis=-2))
    except GeometryError as exc:
        raise GeometryError(f"next point coincides with the element's point: {exc}") from exc
    if not (np.abs((f * y).sum(axis=-1)) < PENCIL_TOL).all():
        raise GeometryError("pencil point must lie in the pencil plane")
    return y, f


def _pcen_route_by_route(base, initial):
    """pcen_from_circular's propagation as one _propagate_route_by_route
    call per column, column m = 0 along n first.  A failed column is rerun
    element by element, and the error names the first element that fails
    and the one it comes from."""
    lifts = lift_rows(base.data)
    points, functionals = np.empty_like(lifts), np.empty_like(lifts)
    points[0, 0], functionals[0, 0] = initial.point, initial.plane.functional

    def step(at, prev):
        points[at], functionals[at] = _propagate_route_by_route(
            points[prev], functionals[prev], lifts[at])

    def named_step(at, prev):
        try:
            step(at, prev)
        except GeometryError as exc:
            raise GeometryError(f"at {at} from {prev}: {exc}") from exc

    for n in range(1, base.shape[1]):
        named_step((0, n), (0, n - 1))
    for m in range(1, base.shape[0]):
        try:
            step(m, m - 1)
        except GeometryError:
            for n in range(base.shape[1]):
                named_step((m, n), (m - 1, n))
            raise
    return points, functionals


def _fiber_gaps(net):
    """The distance of every lattice neighbour's lift from a vertex's fiber,
    as coincident_rows measures it."""
    lifts = lift_rows(net.data)
    gaps = []
    for ax in range(net.dim):
        x = np.moveaxis(lifts, ax, 0)
        v, w = x[:-1], x[1:]
        vj = j_on_vector(v)
        off = w - v * (v.conj() * w).sum(-1, keepdims=True) \
            - vj * (vj.conj() * w).sum(-1, keepdims=True)
        gaps.append(np.linalg.norm(off, axis=-1).ravel())
    return np.concatenate(gaps)


@settings(settings.get_profile("kernel"), max_examples=120)
@given(st.integers(2, 8), st.integers(2, 8), st.floats(0.1, 3.0), st.booleans(), rngs,
       st.one_of(st.none(), st.tuples(st.integers(0, 63), st.integers(0, 1),
                                      st.floats(-9.6, -4.0) | st.floats(-9.0, -8.7))))
def test_pcen_matches_the_route_by_route_loop(rows, cols, lam, negative, rng, moved):
    """pcen_from_circular and the loop that called propagate_elements once per
    column both succeed or raise the same error.  Some nets have one
    neighbour pair moved to a fiber distance of 2.5e-10...1e-4, above the
    collision cut of 1e-10: span certificates fail there and the SVD
    decides, below 2e-9 it finds rank 2 (a second draw covers 1e-9...2e-9),
    and below 1e-9 the fiber lies in the plane.  Nets whose neighbours are
    all more than 1e-3 apart agree to 1e-11 in every point and functional."""
    points = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))
              for _ in range(rows + cols - 1)]
    try:
        net = evolve_net_circular(points[:rows], points[rows:], -lam if negative else lam)
    except GeometryError:
        assume(False)
    if moved is not None:
        at, ax, exponent = moved
        gap = 10.0 ** exponent
        # the meet with the moved neighbour's fiber has size gap, and the
        # span of that fiber and the element's point s3 / s1 = gap / 2: within
        # rounding of the cuts of 1e-9, either loop's rounding decides
        assume(min(abs(gap / 1e-9 - 1.0), abs(gap / 2e-9 - 1.0)) > 1e-6)
        m, n = divmod(at % (rows * cols), cols)
        m, n = min(m, rows - 1 - (ax == 0)), min(n, cols - 1 - (ax == 1))
        # the neighbour's lift: the vertex's own, moved off its fiber
        v = net[m, n].lift()
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = d - v * np.vdot(v, d) - j_on_vector(v) * np.vdot(j_on_vector(v), d)
        net[m + (ax == 0), n + (ax == 1)] = twistor_project(v + gap * d / _norm(d))
    sphere = normalize_proj(wedge(net[0, 0].lift(), rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4)))
    initial = contact_element(net[0, 0], sphere)
    try:
        want = _pcen_route_by_route(net, initial)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as got:
            pcen_from_circular(net, initial)
        assert str(got.value) == str(exc)
        return
    pcen = pcen_from_circular(net, initial)
    if _fiber_gaps(net).min() > 1e-3:
        for got, ref in zip((pcen.points, pcen.functionals), want):
            for a, b in zip(got.reshape(-1, 4), ref.reshape(-1, 4)):
                assert proj_distance(a, b) < 1e-11


def _near_fiber_pcen(seed, moves):
    """A 6x6 circular net in which each vertex `moved` of moves (moved,
    source, gap) is put at fiber distance gap from the vertex source, and a
    contact element at its origin."""
    rng = np.random.default_rng(seed)
    points = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4))) for _ in range(11)]
    net = evolve_net_circular(points[:6], points[6:], -1.1)
    for moved, source, gap in moves:
        v = net[source].lift()
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = d - v * np.vdot(v, d) - j_on_vector(v) * np.vdot(j_on_vector(v), d)
        net[moved] = twistor_project(v + gap * d / _norm(d))
    sphere = normalize_proj(wedge(net[0, 0].lift(), rng.standard_normal(4)
                                  + 1j * rng.standard_normal(4)))
    return net, contact_element(net[0, 0], sphere)


def _assert_pcen_error(net, initial, start):
    """pcen_from_circular raises the route-by-route loop's error, which
    starts with start."""
    with pytest.raises(GeometryError) as want:
        _pcen_route_by_route(net, initial)
    with pytest.raises(GeometryError) as got:
        pcen_from_circular(net, initial)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(start)


@pytest.mark.parametrize("gap, message", [
    (5e-10, "fiber-in-plane degeneracy: line-in-plane: "),
    (1.5e-9, "next point coincides with the element's point: degenerate-span: rank 2"),
], ids=["fiber-in-plane", "degenerate-span"])
@pytest.mark.parametrize("moved, source", [((0, 3), (0, 2)), ((3, 0), (2, 0)),
                                           ((2, 4), (1, 4)), ((5, 5), (4, 5))],
                         ids=["column-0", "row-3-first", "row-2", "last"])
def test_pcen_names_the_vertex_of_a_neighbour_near_the_fiber(gap, message, moved, source):
    """A base point at fiber distance 1e-10 <= gap < 2e-9 from the one its
    element comes from passes the collision cut and fails in propagation:
    below 1e-9 the fiber lies in the element's plane, and above it the span
    with the element's point has s3 / s1 = gap / 2.  Both errors name the
    vertex and its source, as the route-by-route loop does."""
    net, initial = _near_fiber_pcen(6, [(moved, source, gap)])
    _assert_pcen_error(net, initial, f"at {moved} from {source}: {message}")


@pytest.mark.parametrize("gaps, message", [
    ((1.5e-9, 5e-10), "at (3, 1) from (2, 1): next point coincides with the element's point"),
    ((5e-10, 1.5e-9), "at (3, 1) from (2, 1): fiber-in-plane degeneracy"),
], ids=["span-first", "meet-first"])
def test_pcen_names_the_first_failing_vertex_of_a_step(gaps, message):
    """Two vertices of one row fail their step, each with its own check: the
    error is that of the first in row order, whichever check fails."""
    net, initial = _near_fiber_pcen(7, [((3, n), (2, n), gap) for n, gap in zip((1, 4), gaps)])
    _assert_pcen_error(net, initial, message)


def _circular_pcen_inputs(seed, count, size=24):
    """Inputs drawn as the circular_pcen benchmark workload draws them: each
    from 2 size - 1 random points, a real cross ratio in [-3, -0.3) and a
    random sphere through the first point."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        points = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))
                  for _ in range(2 * size - 1)]
        lam = float(rng.uniform(-3.0, -0.3))
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yield points[:size], points[size:], lam, normalize_proj(wedge(points[0].lift(), vec))


# The worst residuals over the same 8 nets (seed 12) at commit 4d3da0d, whose
# steps met and spanned from the lifts as _propagate_route_by_route does,
# measured with Python 3.11.7 and numpy 2.4.6.
ROUTE_BY_ROUTE_CLOSURE, ROUTE_BY_ROUTE_ADJACENCY = 1.498e-13, 1.156e-13


def test_pcen_residuals_stay_within_twice_the_route_by_route_ones():
    closure = adjacency = 0.0
    for curve, seeds, lam, sphere in _circular_pcen_inputs(12, 8):
        net = evolve_net_circular(curve, seeds, lam)
        pcen = pcen_from_circular(net, contact_element(net[0, 0], sphere))
        closure = max(closure, pcen_face_closure(pcen))
        adjacency = max(adjacency, pcen_adjacency_residual(pcen))
    assert closure <= 2.0 * ROUTE_BY_ROUTE_CLOSURE
    assert adjacency <= 2.0 * ROUTE_BY_ROUTE_ADJACENCY


def _pcen_from_circular_2d(base, initial):
    """pcen_from_circular as it was for 2-dim bases only: column m = 0 along
    n, then each later column from the one before it (a test-only copy,
    without its checks)."""
    lifts = base.lifts()
    fibers, meets, joins = fiber_matrices(lifts)
    points, functionals = np.empty_like(lifts), np.empty_like(lifts)
    points[0, 0], functionals[0, 0] = initial.point, initial.plane.functional
    for n in range(1, base.shape[1]):
        at = (0, n)
        points[at], functionals[at] = _propagate(
            points[0, n - 1], functionals[0, n - 1], fibers[at], meets[at], joins[at])
    for m in range(1, base.shape[0]):
        points[m], functionals[m] = _propagate(
            points[m - 1], functionals[m - 1], fibers[m], meets[m], joins[m])
    return PCEN(base, points, functionals)


def _closure_faces_2d(pcen):
    """closure_faces as it was: the far vertices (m + 1, n + 1) of the
    faces, by 2-dim slices (a test-only copy)."""
    return pcen.base.present[1:, 1:].copy()


def _pcen_face_closure_2d(pcen):
    """pcen_face_closure as it was: the far vertices and their two lower
    neighbours by 2-dim slices (a test-only copy)."""
    faces = _closure_faces_2d(pcen)
    if not faces.any():
        return 0.0
    points, functionals = pcen.points, pcen.functionals
    fiber = fiber_matrices(pcen.base.lifts()[1:, 1:][faces])
    via_m = _propagate(points[:-1, 1:][faces], functionals[:-1, 1:][faces], *fiber)
    via_n = _propagate(points[1:, :-1][faces], functionals[1:, :-1][faces], *fiber)
    return float(max(proj_distance_rows(a, b).max() for a, b in zip(via_m, via_n)))


def _assert_as_in_2d(pcen):
    """closure_faces and pcen_face_closure give the 2-dim slice copies'
    mask, in box_cells order, and closure bit for bit."""
    assert (closure_faces(pcen) == _closure_faces_2d(pcen).ravel()).all()
    assert pcen_face_closure(pcen) == _pcen_face_closure_2d(pcen)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pcen_on_the_lattice_table_is_the_2_dim_one_bit_for_bit(seed):
    """On nets drawn as the circular_pcen workload draws them, and on their
    1 x N, N x 1 and 2 x 2 corners, the propagation over any dimension and
    the closure over box_cells faces equal the 2-dim slice copies bit for
    bit: each step takes the same rows in the same order."""
    for curve, seeds, lam, sphere in _circular_pcen_inputs(seed, 8):
        for rows, cols in ((24, 24), (1, 24), (24, 1), (2, 2)):
            net = evolve_net_circular(curve[:rows], seeds[:cols - 1], lam)
            initial = contact_element(net[0, 0], sphere)
            pcen, want = pcen_from_circular(net, initial), _pcen_from_circular_2d(net, initial)
            assert pcen.points.tobytes() == want.points.tobytes()
            assert pcen.functionals.tobytes() == want.functionals.tobytes()
            _assert_as_in_2d(pcen)


def test_pcen_document_missing_far_base_points_closes_as_in_2d():
    """A PCEN document without base points at some far corners: the closure
    leaves out the same faces as the 2-dim slice copy, and its value is that
    copy's bit for bit."""
    curve, seeds, lam, sphere = next(_circular_pcen_inputs(4, 1, size=6))
    net = evolve_net_circular(curve, seeds, lam)
    doc = pcen_to_doc(pcen_from_circular(net, contact_element(net[0, 0], sphere)))
    for key in ("1,1", "2,4", "5,5", "0,3", "3,0"):
        del doc["entries"][key]["base"]
    pcen = doc_to_pcen(doc)
    assert int(closure_faces(pcen).sum()) == 25 - 3
    _assert_as_in_2d(pcen)


# each component scaled by 10^-k, k = 0...9, so that some fall below the
# anchor threshold of 1e-6 of the norm
scaled_vec4 = st.tuples(vec4, st.lists(st.integers(0, 9), min_size=4, max_size=4)).map(
    lambda t: t[0] * 10.0 ** -np.array(t[1]))


@settings(settings.get_profile("kernel"))
@given(st.lists(scaled_vec4, min_size=1, max_size=6))
def test_normalize_rows_matches_normalize_proj(rows):
    try:
        want = [normalize_proj(v) for v in rows]
    except GeometryError:
        with pytest.raises(GeometryError, match="cannot normalize"):
            normalize_rows(np.array(rows))
        return
    got = normalize_rows(np.array(rows))
    for v, g, w in zip(rows, got, want):
        # the anchor, the first component above 1e-6 of the norm, is exactly
        # real and positive in both
        anchor = int((np.abs(v) > 1e-6 * _norm(v)).argmax())
        for x in (g, w):
            assert x[anchor].imag == 0.0 and x[anchor].real > 0.0
        # normalize_proj's norm is math.hypot, normalize_rows' a chain of
        # np.hypot: they differ by rounding
        assert np.abs(g - w).max() <= 1e-15


def test_normalize_rows_keeps_huge_components():
    # the squares of components above about 1e154 overflow; a row holding
    # them is normalized as normalize_proj normalizes it, with no warning
    rows = np.array([[1e200, 3e200j, 0.0, 1.0], [0.0, 1e200, -2e200, 5.0], [1.0, 2.0, 3.0, 4.0]])
    got = normalize_rows(rows)
    for g, v in zip(got, rows):
        assert np.abs(g - normalize_proj(v)).max() <= 1e-15
        assert abs(_norm(g) - 1.0) < 1e-15
    assert abs(got[0, 1] - 3j / np.sqrt(10.0)) < 1e-15 and got[0, 3] > 0.0


@settings(settings.get_profile("kernel"))
@given(st.lists(st.tuples(quat, quat), min_size=1, max_size=6))
def test_lift_rows_matches_lift(pairs):
    points = [HPoint(a, b) for a, b in pairs if not (a.norm() < 1e-14 and b.norm() < 1e-14)]
    assume(points)
    got = lift_rows(quat_pairs(points))
    for g, p in zip(got, points):
        assert np.abs(g - p.lift()).max() <= 1e-15


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _with_singular_values(rng, m, n, values):
    """An m x n matrix U diag(values) V^H with random unitary U and V."""
    k = len(values)
    return _unitary(rng, m)[:, :k] @ np.diag(values) @ _unitary(rng, n)[:k]


def _svd_rank_reference(matrix, cut):
    """Rank at a cut relative to s1, or None when a value is within rounding."""
    s = np.linalg.svd(matrix, compute_uv=False)
    ratios = s[1:] / (cut * s[0])
    if any(r > 0.0 and abs(math.log(r)) < 1e-6 for r in ratios):
        return None
    return int(np.sum(s > cut * s[0]))


@settings(settings.get_profile("kernel"))
@given(rngs, st.sampled_from((4, 6)), st.integers(1, 6),
       st.sampled_from((1e-10, 1e-9, 1e-8, 1e-7)),
       st.lists(near_cut, min_size=5, max_size=5),
       st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
def test_rank_helpers_match_direct_svd(rng, n, m, cut, offsets, scale):
    m = min(m, n)
    values = [1.0] + sorted((cut * x for x in offsets[:m - 1]), reverse=True)
    matrix = scale * _with_singular_values(rng, m, n, values)
    rank = _svd_rank_reference(matrix, cut)
    rows = np.array([r / np.linalg.norm(r) for r in matrix])
    span_rank = _svd_rank_reference(rows, cut)
    assume(rank is not None and span_rank is not None)
    assert svd_rank(matrix, cut)[0] == rank
    assert nullspace(matrix, cut).shape == (n, n - rank)
    assert orthonormal_span(matrix, tol=cut).shape == (n, span_rank)


def _two_svd_conic_det(vecs):
    """The restricted quadric form's determinant as built before is_conic_net
    shared its decomposition: planarity from one SVD, the plane's basis from
    orthonormal_span's."""
    s = np.linalg.svd(np.array(vecs), compute_uv=False)
    if s[3] / s[0] > 1e-7:
        return None
    basis = orthonormal_span(vecs, tol=1e-7)
    if basis.shape[1] != 3:
        return None
    return np.linalg.det(np.array([[quadric_pair(basis[:, i], basis[:, j])
                                    for j in range(3)] for i in range(3)]))


@settings(settings.get_profile("kernel"))
@given(rngs, st.floats(1e-2, 1.0), st.floats(1e-2, 1.0), near_cut)
def test_conic_form_from_one_svd_matches_two(rng, s2, s3, offset):
    values = [1.0, max(s2, s3), min(s2, s3), 1e-7 * offset]
    net = LatticeNet((2, 2), "q4")
    for idx, v in zip(((0, 0), (1, 0), (1, 1), (0, 1)),
                      _with_singular_values(rng, 4, 6, values)):
        net[idx] = v
    vecs = net.face_vertices((0, 0), (0, 1))
    assume(_svd_rank_reference(np.array(vecs), 1e-7) is not None)
    want = _two_svd_conic_det(vecs)
    (report,) = is_conic_net(net)
    if want is None:
        assert report.form is None and not report.irreducible
    else:
        assert report.form is not None
        assert abs(report.det - want) < AGREE


# ---------------------------------------------------------------------------
# the exterior-algebra line kernel against its null-space predecessors


vec6 = st.lists(coords, min_size=12, max_size=12).map(
    lambda x: np.array(x[:6]) + 1j * np.array(x[6:]))


def _line(v, w):
    """The line v ^ w, if v and w are well apart; assumes otherwise."""
    assume(_norm(v) > 0.0 and _norm(w) > 0.0)
    line = wedge(v, w)
    assume(_norm(line) > WELL_POSED * _norm(v) * _norm(w))
    return line


def _well_anchored(a, pair):
    """No tie of the largest |a_ij|, and each vector's phase anchor (its
    first component above 1e-6) well clear of zero: the column choice of
    line_factorize is then fixed, and the phase normalize_proj gives each
    vector moves with the anchor's relative perturbation."""
    mags = np.sort(np.abs(a))
    if mags[-1] - mags[-2] <= 1e-9 * mags[-1]:
        return False
    return all(np.abs(v)[np.abs(v) > 1e-7][0] > WELL_POSED for v in pair)


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec6)
def test_line_factorize_is_a_stable_orthonormal_pair(v, w, direction):
    a = normalize_proj(_line(v, w))
    x, y = line_factorize(a)
    assert abs(_norm(x) - 1.0) < AGREE and abs(_norm(y) - 1.0) < AGREE
    assert abs(np.vdot(x, y)) < AGREE
    assert proj_distance(wedge(x, y), a) < AGREE
    assume(_norm(direction) > 0.0 and _well_anchored(a, (x, y)))
    x2, y2 = line_factorize(a + 1e-15 * direction / _norm(direction))
    assert _norm(x2 - x) + _norm(y2 - y) < 1e-12


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec4)
def test_meet_join_matches_null_spaces(p, u, w):
    assume(_volume(p, u, w) > WELL_POSED)
    a, b = wedge(p, u), wedge(p, w)
    point, plane = meet_join(a, b)
    v1, w1 = _svd_pair(a)
    v2, w2 = _svd_pair(b)
    coeffs = nullspace(np.column_stack([v1, w1, -v2, -w2]), 1e-8)
    assert coeffs.shape == (4, 1)
    ref_point = v1 * coeffs[0, 0] + w1 * coeffs[1, 0]
    ref_plane = nullspace(np.array([v1, w1, v2, w2]), 1e-8)
    assert ref_plane.shape == (4, 1)
    assert proj_distance(point, ref_point) < AGREE
    assert proj_distance(point, p) < AGREE
    assert proj_distance(plane.functional, ref_plane[:, 0]) < AGREE


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec4, vec4, scalar, scalar, scalar, scalar)
def test_meet_join_rejects_skew_and_coincident_lines(v1, w1, v2, w2, s, t, x, y):
    assume(_volume(v1, w1, v2) > WELL_POSED and _volume(v1, w1, w2) > WELL_POSED)
    rows = np.array([u / _norm(u) for u in (v1, w1, v2, w2)])
    assume(abs(np.linalg.det(rows)) > WELL_POSED)
    a = wedge(v1, w1)
    with pytest.raises(GeometryError, match="lines are not incident"):
        meet_join(a, wedge(v2, w2))
    # another pair spanning the same line
    assume(abs(s * y - t * x) > WELL_POSED)
    with pytest.raises(GeometryError, match="lines coincide"):
        meet_join(a, wedge(s * v1 + t * w1, x * v1 + y * w1))


def _reference_plane_fiber(functional):
    """The fiber in a plane as the null space of the plane's functional and
    its j-image's, each plane spanned by a null-space basis."""
    basis = nullspace(functional.reshape(1, 4))
    jbasis = np.column_stack([j_on_vector(basis[:, k]) for k in range(3)])
    jplane = nullspace(jbasis.T, 1e-10)
    assert jplane.shape == (4, 1)
    line = nullspace(np.vstack([functional, jplane[:, 0]]), 1e-8)
    assert line.shape == (4, 2)
    return wedge(line[:, 0], line[:, 1])


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, vec4)
def test_plane_fiber_matches_null_space_fiber(a, b, c):
    assume(_volume(a, b, c) > WELL_POSED)
    plane = plane_from_span([a, b, c])
    got = plane_fiber(plane)
    assert proj_distance(got, _reference_plane_fiber(plane.functional)) < AGREE
    assert proj_distance(got, normalize_proj(j_on_bivector(got))) < AGREE
    x, y = line_factorize(got)
    assert max(plane.residual(x), plane.residual(y)) < AGREE


def _reference_hexahedron(points):
    """The eighth vertex from null spaces: the face planes in the span's
    coordinates, then their common point."""
    basis = orthonormal_span(points, tol=1e-8)
    assert basis.shape[1] == 4
    c0, c1, c2, c3, c12, c13, c23 = (basis.conj().T @ x for x in points)
    planes = []
    for triple in ((c1, c12, c13), (c2, c12, c23), (c3, c13, c23)):
        f = nullspace(np.array(triple), 1e-8)
        assert f.shape == (4, 1)
        planes.append(f[:, 0])
    x = nullspace(np.array(planes), 1e-8)
    assert x.shape == (4, 1)
    return basis @ x[:, 0]


@settings(settings.get_profile("kernel"))
@given(st.lists(vec4, min_size=4, max_size=4), st.lists(scalar, min_size=9, max_size=9))
def test_hexahedron_matches_null_space_construction(corners, weights):
    """Cubes in C^4 with planar faces: phi_ij in the plane of phi, phi_i, phi_j."""
    phi, phi1, phi2, phi3 = corners
    pairs = ((phi1, phi2), (phi1, phi3), (phi2, phi3))
    far = [weights[3 * k] * phi + weights[3 * k + 1] * x + weights[3 * k + 2] * y
           for k, (x, y) in enumerate(pairs)]
    cube = [phi, phi1, phi2, phi3, *far]
    assume(min(_norm(x) for x in cube) > WELL_POSED)
    faces = ((phi1, far[0], far[1]), (phi2, far[0], far[2]), (phi3, far[1], far[2]))
    assume(all(_volume(*face) > WELL_POSED for face in faces))
    functionals = [span_functional(*(x / _norm(x) for x in face)) for face in faces]
    assume(_volume(*functionals) > WELL_POSED)
    assume(abs(np.linalg.det(np.array(corners))) > WELL_POSED * np.prod([_norm(x) for x in corners]))
    assert proj_distance(hexahedron_complete(*cube), _reference_hexahedron(cube)) < AGREE


def _reference_rho(line, form):
    """The h-perpendicular of a line as the null space of h(v, .), h(w, .)."""
    v, w = _svd_pair(line)
    perp = nullspace(np.array([v.conj() @ form.hmat, w.conj() @ form.hmat]), 1e-10)
    assert perp.shape == (4, 2)
    return wedge(perp[:, 0], perp[:, 1])


@settings(settings.get_profile("kernel"))
@given(vec4, vec4, quat, scalar, scalar)
def test_rho_matches_perpendicular_null_space(v, w, q, r1, r2):
    line = normalize_proj(_line(v, w))
    assume(abs(r1 * r2 - q.norm() ** 2) > WELL_POSED)
    form = QuatHermitianForm(((Quaternion.from_real(r1), q),
                              (q.conjugate(), Quaternion.from_real(r2))))
    assert proj_distance(rho(line, form), _reference_rho(line, form)) < AGREE


def _reference_transversals(gens):
    """The two lines meeting three skew lines: the quadric's points on a
    pencil in the plane polar to their span, found by shifting the pencil
    until it cuts the quadric in two skew lines."""
    w = nullspace(np.array([g @ QUADRIC_MATRIX for g in gens]), 1e-10)
    assert w.shape == (6, 3)
    for shift in (0.0, 0.37, -0.61, 1.13):
        roots = [x for x in quadric_roots(w[:, 0] + shift * w[:, 2], w[:, 1])
                 if abs(quadric_pair(x, x)) < 1e-7]
        if len(roots) == 2 and abs(quadric_pair(*roots)) > WELL_POSED:
            return roots
    assume(False)


def _reference_factors(transversal, gens):
    """Points p, q of a transversal on the first two generators, scaled so
    that its point on the third is p + q."""
    p, q, r = (line_meet_point(transversal, g) for g in gens)
    (a, b), *_ = np.linalg.lstsq(np.column_stack([p, q]), r, rcond=None)
    return a * p, b * q


def _reference_regulus_point(transversals, gens, z):
    """The regulus line at z through the transversals' points at z, where
    the generators sit at infinity, 0 and 1."""
    (p, q), (pt, qt) = (_reference_factors(s, gens) for s in transversals)
    return wedge(p * z.num + q * z.den, pt * z.num + qt * z.den)


def _fibers(quats):
    return [twistor_fiber(HPoint.from_quaternion(q)) for q in quats]


def _skew(lines):
    """The smallest |<a, b>| of a pair of the unit-scaled lines."""
    units = [normalize_proj(x) for x in lines]
    return min(abs(quadric_pair(a, b)) for a, b in itertools.combinations(units, 2))


# three complex lines, or three twistor fibers
generator_triples = st.one_of(st.lists(st.tuples(vec4, vec4), min_size=3, max_size=3),
                              st.lists(quat, min_size=3, max_size=3))
ext_param = st.one_of(st.just(INF), st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                        allow_infinity=False).map(as_ext))


@settings(settings.get_profile("kernel"))
@given(generator_triples, ext_param)
def test_regulus_point_matches_transversal_construction(triple, z):
    if isinstance(triple[0], Quaternion):
        gens = _fibers(triple)
    else:
        gens = [_line(v, w) for v, w in triple]
    assume(_skew(gens) > WELL_POSED)
    gens = [normalize_proj(g) for g in gens]
    transversals = _reference_transversals(gens)
    got = regulus_point(regulus_build(*gens), z)
    assert proj_distance(got, _reference_regulus_point(transversals, gens, z)) < AGREE
    assert max(abs(quadric_pair(got, s)) for s in transversals) < AGREE


def _far_vertices(x, sides, l12, l13, l23):
    """The far vertex of the cube on x, x1, x2, x3 by each of its three
    faces, the face on x, x_i, x_j closed with cr(x_i, x, x_j, x_ij) = l_ij.
    Cubes with a far face whose lines pair below 1e-3 are left out: the
    completion's error grows as that pairing shrinks."""
    x1, x2, x3 = sides
    x12 = steiner_fourth_point(x1, x, x2, l12)
    x13 = steiner_fourth_point(x1, x, x3, l13)
    x23 = steiner_fourth_point(x2, x, x3, l23)
    faces = ((x13, x3, x23), (x12, x2, x23), (x12, x1, x13))
    assume(min(_skew(face) for face in faces) > 1e-3)
    return [steiner_fourth_point(*face, label) for face, label in zip(faces, (l12, l13, l23))]


def _spread(points):
    return max(proj_distance(a, b) for a, b in itertools.combinations(points, 2))


def _labels_ok(labels):
    return all(WELL_POSED < abs(x) < 1.0 / WELL_POSED and abs(x - 1.0) > WELL_POSED
               for x in labels)


@settings(settings.get_profile("kernel"))
@given(rngs, st.booleans())
def test_cross_ratio_system_is_3d_consistent(rng, fibers):
    """The complex cross-ratio system cr(x_i, x, x_j, x_ij) = a_i / a_j on
    Q^4 is 3D consistent: the three completions of the far vertex agree.
    Real labels on twistor fibers give the real cross-ratio system.  The
    control, three labels l_ij with l12 l23 != l13, must disagree."""
    def draw(n):
        x = rng.standard_normal((n, 2))
        return x[:, 0] if fibers else x[:, 0] + 1j * x[:, 1]

    if fibers:
        cube = _fibers(Quaternion(*q) for q in rng.standard_normal((4, 4)))
    else:
        cube = [wedge(v, w) for v, w in draw(32).reshape(4, 2, 4)]
    assume(_skew(cube) > WELL_POSED)
    a1, a2, a3 = draw(3)
    labels = (a1 / a2, a1 / a3, a2 / a3)
    assume(_labels_ok(labels))
    assert _spread(_far_vertices(cube[0], cube[1:], *labels)) < 1e-10
    free = draw(3)
    l12, l13, l23 = free
    assume(_labels_ok(free) and abs(l12 * l23 / l13 - 1.0) > 0.1)
    assert _spread(_far_vertices(cube[0], cube[1:], *free)) > 1e-6


def _steiner_net(net, label):
    """The fibers of the net's boundary evolved on Q^4 by Steiner cross ratio
    label, each vertex from the three before it as in evolve_net_circular."""
    width, height = net.shape
    f = {idx: twistor_fiber(net[idx]) for idx in net.indices() if 0 in idx}
    for n in range(1, height):
        for m in range(1, width):
            f[m, n] = steiner_fourth_point(f[m, n - 1], f[m - 1, n - 1], f[m - 1, n], label)
    return f


@settings(settings.get_profile("kernel"), max_examples=60)
@given(rngs, st.floats(-4.0, 4.0))
def test_real_section_is_the_steiner_evolution_of_fibers(rng, lam):
    """The real cross-ratio system in S^4 is the real section of the one on
    Q^4: at real lam, the twistor fibers of evolve_net_circular are the
    Steiner evolution (steiner_fourth_point) of its boundary fibers at the
    same lam.  Controls: the Moebius relabellings 1/lam, 1 - lam and
    lam/(lam - 1) of the cross ratio, away from their fixed points, each
    miss the net."""
    assume(min(abs(lam - x) for x in (-1.0, 0.0, 0.5, 1.0, 2.0)) > 0.1)
    points = [HPoint.from_quaternion(Quaternion(*q)) for q in rng.standard_normal((7, 4))]
    net = evolve_net_circular(points[:4], points[4:], lam)
    want = {idx: twistor_fiber(net[idx]) for idx in net.indices()}
    # every face's three generators well apart on Q^4
    assume(all(_skew([want[m, n - 1], want[m - 1, n - 1], want[m - 1, n]]) > WELL_POSED
               for m in range(1, 4) for n in range(1, 4)))

    def miss(label):
        got = _steiner_net(net, label)
        return max(proj_distance(got[idx], want[idx]) for idx in want)

    assert miss(lam) < 1e-10
    for label in (1.0 / lam, 1.0 - lam, lam / (lam - 1.0)):
        assert miss(label) > 1e-3
