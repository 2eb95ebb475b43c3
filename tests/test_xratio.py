import cmath
import math
import re

import numpy as np
import pytest

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    GeometryError,
    is_decomposable,
    lines_incident,
    normalize_proj,
    proj_distance,
    wedge,
)
from twistnets.twistor import HPoint, is_j_real, j_on_vector, twistor_fiber
from twistnets.xratio import (
    INF,
    ExtC,
    as_ext,
    check_cross_ratio,
    complex_cr,
    complex_fourth_point,
    cr_invariant,
    fourth_points_on_frames,
    moebius_apply,
    quat_cr,
    quat_fourth_point,
    quat_fourth_points,
    regulus_build,
    regulus_parameter,
    regulus_point,
    steiner_cr,
    steiner_fourth_point,
)


# ---------------------------------------------------------------------------
# complex cross ratio


def test_complex_cr_normalization():
    lam = 2.5 - 0.75j
    assert complex_cr(INF, 1.0, 0.0, lam).isclose(as_ext(lam), 1e-12)


def test_complex_fourth_point_inverts_cr():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z1, z2, z3 = (complex(*rng.standard_normal(2)) for _ in range(3))
        lam = complex(*rng.standard_normal(2))
        if abs(lam) < 1e-3 or abs(lam - 1) < 1e-3:
            continue
        z4 = complex_fourth_point(z1, z2, z3, lam)
        assert complex_cr(z1, z2, z3, z4).isclose(as_ext(lam), 1e-9)


def test_complex_cr_with_infinity():
    # one infinite argument in each slot still satisfies the fourth-point
    # round trip
    rng = np.random.default_rng(42)
    lam = -0.8 + 0.3j
    finite = [complex(*rng.standard_normal(2)) for _ in range(3)]
    for k in range(3):
        zs = [as_ext(z) for z in finite]
        zs[k] = INF
        z4 = complex_fourth_point(zs[0], zs[1], zs[2], lam)
        assert complex_cr(zs[0], zs[1], zs[2], z4).isclose(as_ext(lam), 1e-10)
    z4 = complex_fourth_point(INF, 1.0, 0.0, -1.0)
    assert z4.isclose(as_ext(-1.0), 1e-12)


def test_complex_cr_coincident_raises():
    with pytest.raises(GeometryError):
        complex_cr(1.0, 1.0, 0.0, 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ExtC(0, 0), "invalid homogeneous pair (0, 0)"),
    (lambda: ExtC(math.nan, 1.0), "homogeneous pair must be finite"),
    (lambda: ExtC(1.0, complex(0.0, math.inf)), "homogeneous pair must be finite"),
    (lambda: quat_cr(HPoint.infinity(), HPoint.infinity(),
                     HPoint.from_quaternion(Quaternion.one()), HPoint.from_quaternion(Quaternion.i())),
     "more than one point at infinity"),
], ids=["zero-pair", "nan-pair", "infinite-pair", "quat-cr-of-two-infinities"])
def test_xratio_refusals(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("k", [-1000, -700, -60, 700, 1000])
def test_complex_fourth_point_of_pairs_at_any_power_of_two(k):
    # ExtC scales a pair outside its window when it is made, so pairs times
    # 2^k give the fourth point of the pairs at unit scale bit for bit;
    # before, p1 and p2 came out coincident under 2^-60, and the products of
    # the step overflowed to a NaN pair over 2^700
    rng = np.random.default_rng(44)
    s = math.ldexp(1.0, k)
    for _ in range(20):
        z = [complex(*rng.standard_normal(2)) for _ in range(3)]
        lam = complex(*rng.standard_normal(2))
        want = complex_fourth_point(*z, lam)
        got = complex_fourth_point(*(ExtC(x * s, s) for x in z), lam)
        assert (got.num, got.den) == (want.num, want.den)


def test_two_points_near_infinity_give_a_finite_fourth_point():
    # before, num = a z3.num overflowed and num / max(|num|, |den|) was the
    # NaN pair ExtC(nan+nanj, -0j); with p1 and p3 at infinity the fourth
    # point is infinity too
    w = complex_fourth_point(1e200, 2.0, 3e200, 0.5 + 0.5j)
    assert cmath.isfinite(w.num) and cmath.isfinite(w.den)
    assert w.is_infinity() and w.isclose(complex_fourth_point(INF, 2.0, INF, 0.5 + 0.5j))


def test_complex_fourth_point_refuses_coincident_p1_and_p2():
    # the cross ratio of p1, p2 and any two points is 0, never lam; before,
    # p1 came back, also given at two scales
    for p1, p2 in ((0.5 + 1j, 0.5 + 1j), (ExtC(1.0, 1.0), ExtC(2.0, 2.0)), (INF, INF)):
        with pytest.raises(GeometryError, match="^coincident points p1 and p2$"):
            complex_fourth_point(p1, p2, 3.0, -1.0)


def test_one_rule_decides_every_cross_ratio_form():
    for lam in (-1, 0.5, 2 - 1j, 1 + 2e-9, ExtC(3.0, 2.0), ExtC(1.0, 1.0 + 1e-6),
                np.array([-1.0, 2.0, 0.3 + 4j]), [0.25, -3.0], 9.9e13):
        check_cross_ratio(lam)
    for lam, what in ((0, "0 or 1"), (1 - 5e-10, "0 or 1"), (5e-10j, "0 or 1"),
                      (ExtC(2.0, 2.0), "0 or 1"), (INF, "infinity"), (ExtC(1.0, 1e-16), "infinity"),
                      (complex(math.inf, 1.0), "infinity"), (complex(0.0, math.nan), "nan"),
                      (np.array([-1.0, 1e-10]), "0 or 1"), (np.array([2.0, np.nan]), "nan"),
                      (np.array([-np.inf, 3.0]), "infinity"), (1e14, "infinity"),
                      (-1e14j, "infinity"), (np.array([2.0, 1e15]), "infinity")):
        with pytest.raises(GeometryError, match=f"^degenerate cross-ratio value {what}$"):
            check_cross_ratio(lam)


def test_one_infinity_cut_for_cp1():
    # |den| <= 1e-14 max(1, |num|): is_infinity holds exactly where value refuses
    for z, inf in ((ExtC(1.0, 0.0), True), (ExtC(1.0, 1e-14), True), (ExtC(1.0, 2e-14), False),
                   (ExtC(1e3, 1e-11), True), (ExtC(1e3, 2e-11), False),
                   (ExtC(1e-3, 1e-14), True), (ExtC(1e-3, 2e-14), False)):
        assert z.is_infinity() == inf
        if inf:
            with pytest.raises(GeometryError, match="^point at infinity has no finite value$"):
                z.value()
        else:
            assert math.isfinite(abs(z.value()))


_FIBERS = [wedge(*np.eye(4, dtype=complex)[[0, 1]]), wedge(*np.eye(4, dtype=complex)[[2, 3]]),
           wedge(np.array([1, 0, 1, 0], dtype=complex), np.array([0, 1, 0, 1], dtype=complex))]


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_fourth_point_kernels_refuse_a_non_finite_cross_ratio(lam):
    # before, quat_fourth_point returned a NaN point for each, and
    # complex_fourth_point for NaN
    pts = [_hp(Quaternion(*v)) for v in np.eye(4)[:3]]
    for build in (lambda: quat_fourth_point(*pts, Quaternion(lam)),
                  lambda: complex_fourth_point(0.5, 1.0, 2.0, lam),
                  lambda: steiner_fourth_point(*_FIBERS, lam)):
        with pytest.raises(GeometryError, match=r"^degenerate cross-ratio value (nan|infinity)$"):
            build()


# ---------------------------------------------------------------------------
# quaternionic cross ratio


def _hp(q):
    return HPoint.from_quaternion(q)


def test_quat_cr_complex_agreement():
    # on C subset of H the quaternionic cross ratio reduces to the complex
    # one, also with the point at infinity in any of the four slots
    rng = np.random.default_rng(1)
    for slot in (None, 0, 1, 2, 3):
        for _ in range(50):
            zs = [complex(*rng.standard_normal(2)) for _ in range(4)]
            if slot is not None:
                zs[slot] = INF
            cr_c = complex_cr(*zs).value()
            cr_q = quat_cr(*(HPoint.infinity() if z is INF else _hp(Quaternion(z.real, z.imag))
                             for z in zs))
            z1, z2 = cr_q.complex_pair()
            assert abs(z1 - cr_c) < 1e-9 and abs(z2) < 1e-9


def test_quat_fourth_point_known_value():
    # [1, 0, i, q4] = -1 has the concircular solution q4 = 1 + i ... check via cr
    one = _hp(Quaternion.from_real(1.0))
    zero = _hp(Quaternion(0, 0, 0, 0))
    qi = _hp(Quaternion.i())
    q4 = quat_fourth_point(one, zero, qi, Quaternion.from_real(-1.0))
    cr = quat_cr(one, zero, qi, q4)
    assert cr.isclose(Quaternion.from_real(-1.0), 1e-9)


def test_quat_fourth_point_infinity_cases():
    rng = np.random.default_rng(2)
    lam = Quaternion.from_real(0.7)
    finite = [_hp(Quaternion(*rng.standard_normal(4))) for _ in range(3)]
    for k in range(3):
        pts = list(finite)
        pts[k] = HPoint.infinity()
        q4 = quat_fourth_point(pts[0], pts[1], pts[2], lam)
        cr = quat_cr(pts[0], pts[1], pts[2], q4)
        assert cr.isclose(lam, 1e-8)


def test_quat_fourth_point_needs_a_real_cross_ratio():
    pts = [_hp(Quaternion(*v)) for v in np.eye(4)[:3]]
    with pytest.raises(GeometryError, match="real cross ratio"):
        quat_fourth_point(*pts, Quaternion(0.5, 0.0, 0.1, 0.0))
    for lam in (0.0, 1.0):
        with pytest.raises(GeometryError, match="degenerate cross-ratio value 0 or 1"):
            quat_fourth_point(*pts, Quaternion.from_real(lam))
    with pytest.raises(GeometryError, match="coincident points p1 and p2"):
        quat_fourth_point(pts[0], pts[0], pts[1], Quaternion.from_real(-1.0))


def test_quat_fourth_point_rejects_a_repeated_random_point():
    # LU leaves no exactly zero pivot for most repeated random lifts, so the
    # repeated point is caught before the solve
    rng = np.random.default_rng(6)
    for _ in range(50):
        p, q = (_hp(Quaternion(*rng.standard_normal(4))) for _ in range(2))
        with pytest.raises(GeometryError, match="coincident points p1 and p2"):
            quat_fourth_point(p, p, q, Quaternion.from_real(-1.0))


def test_quat_fourth_point_rejects_a_point_given_at_two_scales():
    # [q : 1] and [qs : s] are one point, but their unit lifts differ by
    # rounding, so an exact test of the lifts misses most of them
    rng = np.random.default_rng(7)
    for _ in range(200):
        q, s, r = (Quaternion(*rng.standard_normal(4)) for _ in range(3))
        with pytest.raises(GeometryError, match="coincident points p1 and p2"):
            quat_fourth_point(_hp(q), HPoint(q * s, s), _hp(r), Quaternion.from_real(-1.0))


def test_quat_fourth_points_is_quat_fourth_point_row_by_row():
    # one call on the lifts of many faces, with a lam per row, gives each
    # face's batch of one bit for bit; points at infinity are ordinary rows
    rng = np.random.default_rng(4)
    pts = [[_hp(Quaternion(*rng.standard_normal(4))) for _ in range(3)] for _ in range(40)]
    for k in range(0, 40, 7):
        pts[k][k % 3] = HPoint.infinity()
    lams = rng.uniform(-3.0, 3.0, size=40)
    got = quat_fourth_points(*(np.array([p[a].lift() for p in pts]) for a in range(3)), lams)
    for row, p, lam in zip(got, pts, lams):
        want = quat_fourth_point(*p, Quaternion.from_real(lam))
        assert np.array_equal(row, want.lift())
        assert quat_cr(*p, want).isclose(Quaternion.from_real(lam), 1e-8)


def test_fourth_points_on_frames_flags_coincident_rows():
    # rows whose p2 is p1 at another scale, or p1 itself, are flagged, not
    # raised, and leave the other rows' results bit for bit as they are
    rng = np.random.default_rng(8)
    x1, x2, x3 = (np.array([_hp(Quaternion(*rng.standard_normal(4))).lift() for _ in range(12)])
                  for _ in range(3))
    q, s = (Quaternion(*rng.standard_normal(4)) for _ in range(2))
    x1[3], x2[3] = _hp(q).lift(), HPoint(q * s, s).lift()
    x2[7] = x1[7]
    frames = np.stack([x1, j_on_vector(x1), x2, j_on_vector(x2)], axis=-2)
    got, coincident = fourth_points_on_frames(frames, x3, np.asarray(-0.7))
    assert np.flatnonzero(coincident).tolist() == [3, 7]
    assert np.isfinite(got).all()
    good = ~coincident
    assert np.array_equal(got[good], quat_fourth_points(x1[good], x2[good], x3[good], -0.7))
    with pytest.raises(GeometryError, match="^coincident points p1 and p2$"):
        quat_fourth_points(x1, x2, x3, -0.7)


def test_quat_cr_moebius_invariant_pair():
    rng = np.random.default_rng(3)
    pts = [_hp(Quaternion(*rng.standard_normal(4))) for _ in range(4)]
    base = cr_invariant(quat_cr(*pts))
    for _ in range(50):
        m = tuple(tuple(Quaternion(*rng.standard_normal(4)) for _ in range(2))
                  for _ in range(2))
        moved = [moebius_apply(m, p) for p in pts]
        inv = cr_invariant(quat_cr(*moved))
        assert abs(inv.re - base.re) < 1e-8
        assert abs(inv.abs_im - base.abs_im) < 1e-8


# ---------------------------------------------------------------------------
# reguli and the Steiner cross ratio


def _random_fiber(rng):
    return twistor_fiber(_hp(Quaternion(*rng.standard_normal(4))))


def test_regulus_point_parameters():
    rng = np.random.default_rng(5)
    gens = [_random_fiber(rng) for _ in range(3)]
    reg = regulus_build(*gens)
    # parameters infinity, 0, 1 give back the three generators
    for z, g in ((INF, gens[0]), (0.0, gens[1]), (1.0, gens[2])):
        assert proj_distance(regulus_point(reg, z), normalize_proj(g)) < 1e-7
        assert regulus_parameter(reg, g).isclose(as_ext(z), 1e-7)


def test_regulus_members_on_quadric_mutually_skew():
    rng = np.random.default_rng(6)
    gens = [_random_fiber(rng) for _ in range(3)]
    reg = regulus_build(*gens)
    members = [regulus_point(reg, z) for z in (0.3, -1.2, 2.0 + 1.0j)]
    for m in members:
        assert is_decomposable(m, 1e-8)
    assert not lines_incident(members[0], members[1], 1e-6)


def test_regulus_real_generators_give_j_real_real_parameters():
    rng = np.random.default_rng(7)
    gens = [_random_fiber(rng) for _ in range(3)]
    reg = regulus_build(*gens)
    for z in (0.25, -3.0, 1.7):
        assert is_j_real(regulus_point(reg, z), 1e-7)
    assert not is_j_real(regulus_point(reg, 1j), 1e-7)


def test_steiner_cr_is_parameter_cr():
    rng = np.random.default_rng(8)
    for _ in range(20):
        gens = [_random_fiber(rng) for _ in range(3)]
        reg = regulus_build(*gens)
        zs = [complex(*rng.standard_normal(2)) for _ in range(4)]
        pts = [regulus_point(reg, z) for z in zs]
        got = steiner_cr(reg, *pts)
        want = complex_cr(*zs)
        assert got.isclose(want, 1e-8)


def test_steiner_fourth_point_known_value():
    # generators are the fibers over infinity, 1 and 0 on the sphere C; the
    # fourth point with cross ratio lam sits at sphere parameter lam:
    # (e1 lam + e2) ^ (e1j lam + e2j)
    e = np.eye(4, dtype=complex)
    f_inf = wedge(e[0], e[1])
    f_one = wedge(e[0] + e[2], e[1] + e[3])
    f_zero = wedge(e[2], e[3])
    lam = 0.3 - 1.1j
    got = steiner_fourth_point(f_inf, f_one, f_zero, lam)
    want = wedge(e[0] * lam + e[2], e[1] * lam + e[3])
    assert proj_distance(got, want) < 1e-9
    reg = regulus_build(f_inf, f_zero, f_one)
    assert steiner_cr(reg, f_inf, f_one, f_zero, got).isclose(as_ext(lam), 1e-9)


def test_steiner_fourth_point_minus_one_is_circular():
    # fibers of infinity, 1, 0 with lam = -1 complete to the fiber of -1
    e = np.eye(4, dtype=complex)
    f_inf = wedge(e[0], e[1])
    f_one = wedge(e[0] + e[2], e[1] + e[3])
    f_zero = wedge(e[2], e[3])
    got = steiner_fourth_point(f_inf, f_one, f_zero, -1.0)
    want = wedge(-e[0] + e[2], -e[1] + e[3])
    assert proj_distance(got, want) < 1e-10


@pytest.mark.parametrize("lam", [1e-11, 1 + 1e-11])
def test_steiner_fourth_point_refuses_lambda_within_the_cut_of_0_or_1(lam):
    # the Steiner window was 1e-13, and is complex_fourth_point's now
    for build, points in ((steiner_fourth_point, _FIBERS), (complex_fourth_point, (INF, 1.0, 0.0))):
        with pytest.raises(GeometryError, match="^degenerate cross-ratio value 0 or 1$"):
            build(*points, lam)


def test_steiner_fourth_point_real_lambda_is_fiber():
    rng = np.random.default_rng(9)
    gens = [_random_fiber(rng) for _ in range(3)]
    got = steiner_fourth_point(*gens, -2.0)
    assert is_j_real(got, 1e-7)


def test_regulus_rejects_non_skew():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = wedge(v, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = wedge(v, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    c = _random_fiber(rng)
    with pytest.raises(GeometryError, match="generators-not-skew"):
        regulus_build(a, b, c)


def test_line_off_the_conic_through_both_transversals_is_rejected():
    # the regulus of the fibers over infinity, 0 and 1 on the sphere C has
    # the lines (z e1 + e2) ^ (z e1j + e2j) and the transversals
    # span{e1, e2} and span{e1j, e2j}; the line through the point at z on
    # the one and the point at w != z on the other meets both transversals
    # but is not on the conic
    e = np.eye(4, dtype=complex)
    reg = regulus_build(wedge(e[0], e[1]), wedge(e[2], e[3]),
                        wedge(e[0] + e[2], e[1] + e[3]))
    z, w = 0.4 + 0.2j, -0.7 + 0.5j
    off = wedge(z * e[0] + e[2], w * e[1] + e[3])
    assert proj_distance(off, regulus_point(reg, z)) > 0.5
    with pytest.raises(GeometryError, match="point is not on the regulus conic"):
        regulus_parameter(reg, off)
    on = [regulus_point(reg, x) for x in (0.5, -1.0, 2.0j)]
    with pytest.raises(GeometryError, match="point is not on the regulus conic"):
        steiner_cr(reg, *on, off)


def test_as_ext_takes_a_float_infinity_as_the_point_at_infinity():
    assert as_ext(math.inf) is INF and as_ext(-math.inf) is INF


@pytest.mark.parametrize("z", ["x", None, [1.0, 2.0]], ids=["text", "none", "list"])
def test_as_ext_refuses_what_is_no_number(z):
    with pytest.raises(TypeError, match="^cannot interpret .* as an extended complex number$"):
        as_ext(z)
