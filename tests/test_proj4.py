import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistnets import proj4
from twistnets.proj4 import (
    GeometryError,
    QUADRIC_MATRIX,
    ProjPlane,
    is_decomposable,
    line_factorize,
    line_meet_point,
    lines_incident,
    meet_line,
    normalize_proj,
    normalize_rows,
    nullspace,
    orthonormal_pair,
    orthonormal_pair_rows,
    orthonormal_span,
    plane_from_span,
    plane_residual_rows,
    proj_distance,
    proj_distance_rows,
    quadric_pair,
    quadric_roots,
    row_norms,
    span_planes,
    span_residual,
    span_residual_rows,
    wedge,
)


def _random_vec(rng, n=4):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_quadric_matrix_is_involution():
    assert np.allclose(QUADRIC_MATRIX @ QUADRIC_MATRIX, np.eye(6))


def test_wedge_is_decomposable():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = wedge(_random_vec(rng), _random_vec(rng))
        assert is_decomposable(a, 1e-9)


def test_generic_bivector_not_decomposable():
    a = wedge(np.eye(4)[0], np.eye(4)[1]) + wedge(np.eye(4)[2], np.eye(4)[3])
    assert not is_decomposable(a, 1e-9)


def test_incidence_matches_rank_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        v1, w1 = _random_vec(rng), _random_vec(rng)
        v2, w2 = _random_vec(rng), _random_vec(rng)
        if rng.random() < 0.5:
            # force incidence through a shared point
            v2 = v1
        a, b = wedge(v1, w1), wedge(v2, w2)
        rank = np.linalg.matrix_rank(np.array([v1, w1, v2, w2]), tol=1e-9)
        assert lines_incident(a, b, 1e-9) == (rank <= 3)


def test_line_factorize_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = normalize_proj(wedge(_random_vec(rng), _random_vec(rng)))
        v, w = line_factorize(a)
        assert proj_distance(wedge(v, w), a) < 1e-9


def test_line_meet_point():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = _random_vec(rng)
        a = wedge(p, _random_vec(rng))
        b = wedge(p, _random_vec(rng))
        x = line_meet_point(a, b)
        assert proj_distance(x, p) < 1e-8


def test_nullspace_annihilates():
    rng = np.random.default_rng(4)
    m = np.array([_random_vec(rng, 6), _random_vec(rng, 6)])
    ns = nullspace(m)
    assert ns.shape == (6, 4)
    assert np.linalg.norm(m @ ns) < 1e-12


def test_orthonormal_span_is_plain_linear():
    # the span must contain the inputs themselves, not their conjugates
    rng = np.random.default_rng(5)
    vs = [_random_vec(rng), _random_vec(rng)]
    basis = orthonormal_span(vs)
    assert basis.shape[1] == 2
    for v in vs:
        c, _, _, _ = np.linalg.lstsq(basis, v, rcond=None)
        assert np.linalg.norm(basis @ c - v) < 1e-10


def test_orthonormal_span_rank_check():
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    assert orthonormal_span([v, 2 * v]).shape == (4, 1)


def test_orthonormal_span_rejects_a_zero_vector():
    # before, the zero row was divided by its zero norm: a RuntimeWarning
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    for zero in (np.zeros(4), np.full(4, 1e-13)):
        with pytest.raises(GeometryError, match=r"cannot normalize \(near-\)zero"):
            orthonormal_span([v, zero])


def test_plane_membership_and_meet():
    rng = np.random.default_rng(6)
    pts = [_random_vec(rng) for _ in range(3)]
    plane = plane_from_span(pts)
    for p in pts:
        assert plane.residual(p) < 1e-9
    line = wedge(pts[0] + pts[1], _random_vec(rng))
    x = meet_line(plane, line)
    assert plane.residual(x) < 1e-8


def test_common_point_of_three_planes_is_the_plane_of_their_functionals():
    rng = np.random.default_rng(7)
    p = _random_vec(rng)
    planes = [plane_from_span([p, _random_vec(rng), _random_vec(rng)])
              for _ in range(3)]
    x = span_planes(np.array([plane.functional for plane in planes]))
    assert proj_distance(x, p) < 1e-8


@pytest.mark.parametrize("log_s", [-300, -200, -155, -150, 0, 150, 160, 200, 300])
def test_the_plane_rule_unit_scales_a_row_at_any_scale(log_s):
    # the rows' norms are hypot norms: the sum of squares overflowed from
    # 1e154 on, where a row became zero, and underflowed below 1e-154, where
    # a point was taken for a zero row.  Over 200 draws with each row scaled
    # the largest distance was 7.2e-16
    rng = np.random.default_rng(25)
    a, b, c = (_random_vec(rng) for _ in range(3))
    ref = plane_from_span([a, b, c]).functional
    scaled = [a * 10.0 ** log_s, b, c]
    assert proj_distance(plane_from_span(scaled).functional, ref) < 1e-15
    assert proj_distance(span_planes(np.array([scaled]))[0], ref) < 1e-15


@pytest.mark.parametrize("log_s", [-300, -200, -160, -150, 0, 150, 160, 200, 300])
def test_orthonormal_pair_is_orthonormal_at_any_scale(log_s):
    # the norms were square roots of vdot: at 1e-160 the pair came out 4.2e-5
    # off unit norm, at 1e-200 it was refused as a zero vector, and from 1e160
    # on it was NaN.  In range the pair keeps the plain Gram-Schmidt bits
    rng = np.random.default_rng(29)
    a, b = (_random_vec(rng) * 10.0 ** log_s for _ in range(2))
    u, w = orthonormal_pair(a, b)
    gram = np.array([[np.vdot(x, y) for y in (u, w)] for x in (u, w)])
    assert np.abs(gram - np.eye(2)).max() < 1e-15
    for x in (a, b):
        assert span_residual(x / np.abs(x).max(), u, w) < 1e-15
    if log_s == 0:
        plain_u = a / math.sqrt(np.vdot(a, a).real)
        plain_w = b - plain_u * np.vdot(plain_u, b)
        plain_w = plain_w / math.sqrt(np.vdot(plain_w, plain_w).real)
        assert np.array_equal(np.r_[u, w], np.r_[plain_u, plain_w])


@pytest.mark.parametrize("log_s", [-300, -200, -160, -150, 0, 150, 160, 200, 300])
def test_orthonormal_pair_rows_are_orthonormal_pair_at_any_scale(log_s):
    # the row norms were square roots of sums of squares: at 1e-160 the rows
    # came out 9.1e-5 off unit norm, at 1e-200 they divided by zero, and from
    # 1e160 on the squares overflowed
    rng = np.random.default_rng(30)
    a, b = (np.array([_random_vec(rng) for _ in range(8)]) * 10.0 ** log_s for _ in range(2))
    u, w = orthonormal_pair_rows(a, b)
    for got, want in zip(np.stack([u, w], axis=1), map(orthonormal_pair, a, b)):
        assert np.abs(got.conj() @ got.T - np.eye(2)).max() < 1e-15
        assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: orthonormal_pair(np.zeros(4), np.ones(4)), "degenerate-span: zero vector"),
    (lambda: orthonormal_pair(np.ones(4), np.zeros(4)), "degenerate-span: zero vector"),
    (lambda: ProjPlane(np.ones(3)), "plane functional must have 4 entries"),
    (lambda: line_meet_point(np.eye(6)[0], np.eye(6)[5]), "lines are not incident"),
    (lambda: meet_line(ProjPlane(np.eye(4)[0]), np.eye(6)[0] + np.eye(6)[5]),
     "bivector is not decomposable"),
], ids=["pair-of-a-zero-vector", "pair-with-a-zero-vector", "functional-of-3-entries",
        "meet-of-skew-lines", "meet-of-a-plane-and-no-line"])
def test_proj4_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{message}$"):
        call()


def test_meet_line_in_plane_raises():
    pts = [np.eye(4, dtype=complex)[k] for k in range(3)]
    plane = plane_from_span(pts)
    with pytest.raises(GeometryError):
        meet_line(plane, wedge(pts[0], pts[1]))


def test_proj_distance_resolution():
    # nearly identical points should give distances at machine precision,
    # not at the sqrt-of-epsilon floor
    a = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    b = a + 1e-13 * np.array([0, 1.0, 0, 0])
    assert proj_distance(a, a * (2 + 1j)) < 1e-15
    assert proj_distance(a, b) < 1e-12


def test_normalize_proj_idempotent_phase():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = _random_vec(rng)
        n1 = normalize_proj(v)
        n2 = normalize_proj(v * (0.3 - 2.1j))
        assert np.linalg.norm(n1 - n2) < 1e-12


# normalize_proj and normalize_rows as they were before one list of moduli
# served both the norm and the anchor, kept here to pin the results bit for bit;
# both keep a vector whose norm is within 4 eps of 1
_KEEP = 4.0 * np.finfo(float).eps


def _reference_normalize_proj(v):
    v = np.asarray(v, dtype=complex)
    n = math.hypot(*np.abs(v).tolist())
    if n < 1e-12:
        raise GeometryError("cannot normalize (near-)zero homogeneous vector")
    mags = np.abs(v)
    anchor = int((mags > 1e-6 * n).argmax())
    a = complex(v[anchor])
    if a.imag == 0.0 and a.real > 0.0 and abs(n - 1.0) <= _KEEP:
        return v.copy()
    out = v * (a.conjugate() / mags[anchor] / n)
    out[anchor] = mags[anchor] / n
    return out


def _reference_normalize_rows(v):
    v = np.asarray(v, dtype=complex)
    rows = v.reshape(-1, v.shape[-1])
    mags = np.abs(rows)
    n = np.hypot.reduce(mags, axis=1)
    if (n < 1e-12).any():
        raise GeometryError("cannot normalize (near-)zero homogeneous vector")
    k = np.arange(len(rows))
    anchor = (mags > 1e-6 * n[:, None]).argmax(axis=-1)
    a = mags[k, anchor]
    lead = rows[k, anchor]
    out = rows * (lead.conj() / a / n)[:, None]
    out[k, anchor] = a / n
    np.copyto(out, rows, where=((lead == a) & (np.abs(n - 1.0) <= _KEEP))[:, None])
    return out.reshape(v.shape)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


_unit_float = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _vector(draw, size):
    """A vector whose leading component sits just below, at or just above
    the 1e-6 anchor cut, or anywhere; possibly normalized already; scaled by
    r e^(i psi) with r in [1e-6, 1e200]."""
    parts = draw(st.lists(_unit_float, min_size=2 * size, max_size=2 * size))
    v = np.array(parts[:size]) + 1j * np.array(parts[size:])
    rest = float(np.linalg.norm(v[1:]))
    if rest < 1e-3:
        v[1] = 1.0
        rest = float(np.linalg.norm(v[1:]))
    lead = draw(st.sampled_from(["free", "cut", "zero"]))
    if lead == "cut":
        # |v0| = c 1e-6 |v| with c a hair from 1, so the anchor is v0 or v1
        c = 1.0 + draw(st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-3, -1e-3]))
        t = c * 1e-6 / math.sqrt(1.0 - (c * 1e-6) ** 2)
        v[0] = t * rest * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    elif lead == "zero":
        v[0] = 0.0
    if draw(st.booleans()):
        v = _reference_normalize_proj(v)
    if draw(st.booleans()):
        r, psi = draw(st.floats(-6.0, 200.0)), draw(st.floats(0.0, 2 * math.pi))
        v = v * (10.0 ** r * complex(math.cos(psi), math.sin(psi)))
        if draw(st.booleans()):
            v = _reference_normalize_proj(v)
    return v


BIT_FOR_BIT = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@BIT_FOR_BIT
@given(st.sampled_from([4, 6]).flatmap(_vector))
def test_normalize_proj_is_the_reference_bit_for_bit(v):
    assert np.array_equal(_bits(normalize_proj(v)), _bits(_reference_normalize_proj(v)))
    assert np.array_equal(_bits(normalize_proj(normalize_proj(v))), _bits(normalize_proj(v)))


@BIT_FOR_BIT
@given(st.sampled_from([4, 6]).flatmap(
    lambda size: st.lists(_vector(size), min_size=1, max_size=12)), st.booleans())
def test_normalize_rows_is_the_reference_bit_for_bit(rows, stacked):
    v = np.array(rows)
    if stacked and len(v) % 2 == 0:
        v = v.reshape(2, -1, v.shape[-1])
    got = normalize_rows(v)
    assert got.shape == v.shape
    assert np.array_equal(_bits(got), _bits(_reference_normalize_rows(v)))


def test_normalizers_keep_the_reference_edge_cases():
    # a NaN or infinite norm passes no component through the anchor cut:
    # the anchor is the first component, as argmax had it
    with np.errstate(all="ignore"):
        for v in (np.array([np.nan, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, np.inf, 0.0]),
                  np.array([1e-7, np.nan, 0.0, 1.0])):
            for got, want in ((normalize_proj(v), _reference_normalize_proj(v)),
                              (normalize_rows(v[None]), _reference_normalize_rows(v[None]))):
                assert np.array_equal(got.view(float), want.view(float), equal_nan=True)
    for zero in (np.zeros(4), np.full(6, 1e-13)):
        for normalize in (normalize_proj, normalize_rows, _reference_normalize_proj,
                          _reference_normalize_rows):
            with pytest.raises(GeometryError, match=r"cannot normalize \(near-\)zero"):
                normalize(zero)
    with pytest.raises(GeometryError):
        normalize_rows(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))


def _scaled_down(v):
    """v times 2^-k, k the exponent of its largest real component."""
    parts = np.ascontiguousarray(v).view(float)
    return np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(complex)


@BIT_FOR_BIT
@given(st.sampled_from([4, 6]).flatmap(
    lambda size: st.lists(_unit_float, min_size=2 * size, max_size=2 * size)),
    st.floats(308.0, math.log10(1.7e308)), st.integers(0, 11))
def test_normalizers_scale_a_norm_above_the_largest_float_down(parts, log_top, row):
    # the hypot of a row of finite entries overflowed, and the row was
    # normalized to zeros; with moduli up to 1.7e308 a row whose norm
    # overflows now gives exactly the result for the row times 2^-k
    size = len(parts) // 2
    v = np.array(parts[:size]) + 1j * np.array(parts[size:])
    v[0] += 1.0
    v = v / np.abs(v).max() * 10.0 ** log_top
    with np.errstate(over="ignore"):
        huge = np.hypot.reduce(np.abs(v)) == np.inf
    small = _scaled_down(v)
    want = _reference_normalize_proj(small if huge else v)
    assert np.array_equal(_bits(normalize_proj(v)), _bits(want))
    # the row among ordinary rows of a stack
    stack = np.array([np.arange(1.0, size + 1.0)] * 12, dtype=complex)
    stack[row] = v
    got = normalize_rows(stack)
    stack[row] = small if huge else v
    assert np.array_equal(_bits(got), _bits(_reference_normalize_rows(stack)))
    # the scale-free tests divide by the same norm
    w = np.arange(size) + 1j
    assert proj_distance(v, w) == proj_distance(small, w) or not huge
    if size == 4:
        plane = ProjPlane(np.array([1.0, -2.0, 0.5j, 1.0]))
        assert plane.residual(v) == plane.residual(small) or not huge


def test_a_norm_at_the_top_of_the_float_range_is_no_zero():
    # [1e308] * 4 as a quaternion: a unit row, not the zero row of an
    # overflowed hypot, and no RuntimeWarning
    v = np.array([1e308 + 1e308j, 1e308 + 1e308j, 1.0, 0.0])
    for got in (normalize_proj(v), normalize_rows(v[None])[0]):
        assert abs(np.linalg.norm(got) - 1.0) < 1e-15
        # the anchor's phase: the first entry real and positive
        assert np.abs(got[:2] - 1.0 / math.sqrt(2.0)).max() < 1e-15
    # an entry whose modulus alone overflows, its parts finite
    v = np.array([1.5e308 + 1.5e308j, 0.0, 0.0, 0.0])
    assert normalize_rows(v[None]).tolist() == [[1.0, 0.0, 0.0, 0.0]]


@st.composite
def _scaled_rows(draw, count, sets):
    """sets arrays of count random C^4 rows from one seed, each row scaled
    by r e^(i psi) with r in [1e-6, 1e6]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((sets, count, 4)) + 1j * rng.standard_normal((sets, count, 4))
    scales = draw(st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 2 * math.pi)),
                           min_size=sets * count, max_size=sets * count))
    scales = [10.0 ** r * cmath.exp(1j * psi) for r, psi in scales]
    return rows * np.reshape(scales, (sets, count, 1))


ROW_RULES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@ROW_RULES
@given(st.integers(1, 6).flatmap(lambda n: _scaled_rows(n, 4)), st.booleans())
def test_row_rules_are_their_one_vector_forms_row_by_row(rows, stacked):
    """Each *_rows rule, on rows stacked over one or two leading axes, gives
    its one-vector form's value row by row to 1e-14, span residuals relative
    to |x|.  Distances are compared by their sines: asin's slope grows
    without bound at 1, so near-orthogonal points amplify a rounding."""
    a, b, x, c = rows
    f = normalize_rows(c)
    shape = (2, -1, 4) if stacked and len(a) % 2 == 0 else (-1, 4)
    u, w = (r.reshape(-1, 4) for r in orthonormal_pair_rows(a.reshape(shape), b.reshape(shape)))
    dist = proj_distance_rows(a.reshape(shape), b.reshape(shape)).ravel()
    span = span_residual_rows(*(r.reshape(shape) for r in (x, u, w))).ravel()
    plane = plane_residual_rows(f.reshape(shape), x.reshape(shape)).ravel()
    for k in range(len(a)):
        assert np.abs(np.concatenate(orthonormal_pair(a[k], b[k])) - np.r_[u[k], w[k]]).max() < 1e-14
        assert abs(math.sin(dist[k]) - math.sin(proj_distance(a[k], b[k]))) < 1e-14
        assert abs(span[k] - span_residual(x[k], u[k], w[k])) < 1e-14 * np.linalg.norm(x[k])
        assert abs(plane[k] - ProjPlane(c[k]).residual(x[k])) < 1e-14


@ROW_RULES
@given(st.integers(1, 6).flatmap(lambda n: _scaled_rows(n, 2)), st.floats(-11.0, 0.0))
def test_two_rows_lie_in_the_span_of_their_orthonormal_pair(rows, log_gap):
    """a and b are off span{u, w} of orthonormal_pair_rows(a, b) by rounding
    only, which the Gram-Schmidt step amplifies by 1 / sin of their angle:
    w's loss of orthogonality to u.  Over 10^6 draws of unit rows at angles
    1e-11 to 1, the residual times that sine reached 3.5 eps, and 6.6e-15
    at angles whose sine is above 0.1.  So the PCEN adjacency rule, which
    spans the line through two pencil points by their pair, tests no span
    residual of the points."""
    a, d = rows
    # b at an angle of about 10^log_gap from a, scaled and turned as d
    b = (a / row_norms(a) + 10.0 ** log_gap * d / row_norms(d)) * d[..., :1]
    u, w = orthonormal_pair_rows(a, b)
    sine = np.sin(proj_distance_rows(a, b))
    for x in (a, b):
        assert (span_residual_rows(x, u, w) / row_norms(x)[..., 0] * sine < 8 * np.finfo(float).eps).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([4, 6]), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(-300.0, 300.0), st.floats(0.0, 2 * math.pi))
def test_column_chains_are_numpys_reductions_bit_for_bit(width, count, seed, log_r, psi):
    # row_norms and the norms of normalize_rows chain over the columns, in
    # the order numpy's reductions over a short last axis take, zeros among
    # the entries and at every scale
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
    v[rng.random(v.shape) < 0.2] = 0.0
    v *= 10.0 ** log_r * cmath.exp(1j * psi)
    with np.errstate(over="ignore"):
        norms = proj4._row_hypot(v)[2]
        sums = row_norms(v)
        want = np.sqrt((v * v.conj()).real.sum(axis=-1, keepdims=True))
    assert np.array_equal(_bits(norms), _bits(np.hypot.reduce(np.abs(v), axis=-1)))
    assert np.array_equal(_bits(sums), _bits(want))


@ROW_RULES
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_scaled_rows(n, 2), st.integers(0, n - 1))),
       st.floats(-6.0, 6.0), st.floats(0.0, 2 * math.pi))
def test_orthonormal_pair_rows_refuses_a_parallel_row(rows, r, psi):
    (a, b), k = rows
    b[k] = a[k] * (10.0 ** r * cmath.exp(1j * psi))
    for pair, args in ((orthonormal_pair_rows, (a, b)), (orthonormal_pair, (a[k], b[k]))):
        with pytest.raises(GeometryError, match="^degenerate-span: the two vectors are parallel$"):
            pair(*args)


@pytest.mark.parametrize("a", [np.array([1, 0, 0, 0, 0, 1]), np.array([0, 1j, 0, 0, 2, 0]),
                               np.array([1e-8, 0, 0, 0, 0, 1e-8])],
                         ids=["fibers-e1-e2", "skew-pair", "small"])
def test_line_factorize_refuses_a_bivector_that_is_no_line(a):
    # e1^e1j + e2^e2j and i e1^e2 + 2 e1j^e2j pair with themselves to 2 and
    # -4i: no line of CP^3, at any scale
    with pytest.raises(GeometryError, match="^bivector is not decomposable$"):
        line_factorize(a)


def test_quadric_roots_include_a_second_generator_on_the_quadric():
    # h = e1^e1j is a line and g = e1^e2 + e1j^e2j pairs with itself to -2
    # and with h to 0: on the pencil g + t h only t = infinity, h itself,
    # is a point of the quadric
    g, h = np.array([0, 1, 0, 0, 1, 0], dtype=complex), np.array([1, 0, 0, 0, 0, 0], dtype=complex)
    roots = quadric_roots(g, h)
    assert len(roots) == 1 and np.array_equal(roots[0], h)


def test_quadric_roots_of_a_pencil_through_a_line_with_one_finite_root():
    # h = e01 is a line, so t = infinity is a root, and a random g pairs
    # with h: the one finite root is g + t h with t = -<g, g> / 2<g, h>
    rng = np.random.default_rng(26)
    g, h = _random_vec(rng, 6), np.array([1, 0, 0, 0, 0, 0], dtype=complex)
    roots = quadric_roots(g, h)
    assert len(roots) == 2 and np.array_equal(roots[0], h)
    assert abs(quadric_pair(roots[1], roots[1])) < 1e-15 and proj_distance(roots[1], h) > 0.1


def test_the_plane_rule_names_its_first_failing_row_in_row_order():
    # a (2, 3) stack of triples with collinear triples at (0, 2) and (1, 0)
    rng = np.random.default_rng(24)
    triples = rng.standard_normal((2, 3, 3, 4)) + 1j * rng.standard_normal((2, 3, 3, 4))
    for at in ((1, 0), (0, 2)):
        triples[at][2] = 2.0 * triples[at][0] - 1j * triples[at][1]
    with pytest.raises(GeometryError, match="^degenerate-span: rank 2, expected 3") as exc:
        span_planes(triples)
    assert exc.value.row == (0, 2)
    triples[0, 2] = rng.standard_normal((3, 4))
    with pytest.raises(GeometryError) as exc:
        span_planes(triples)
    assert exc.value.row == (1, 0)
