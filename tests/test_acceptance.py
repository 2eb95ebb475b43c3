"""End-to-end property suite.  Each test prints a single PASS/FAIL line."""

import numpy as np
import pytest

from twistnets.quat import Quaternion
from twistnets.proj4 import (
    line_factorize,
    line_meet_point,
    lines_incident,
    normalize_proj,
    plane_from_span,
    proj_distance,
    quadric_pair,
    wedge,
)
from twistnets.twistor import (
    HPoint,
    classify_contact,
    fiber_rows,
    j_on_bivector,
    lift_rows,
    pair_rows,
    quat_pairs,
    sphere_translate,
    twistor_fiber,
)
from twistnets.xratio import (
    INF,
    as_ext,
    complex_cr,
    cr_invariant,
    moebius_apply,
    quat_cr,
    quat_fourth_points,
    regulus_build,
    regulus_point,
    steiner_cr,
    steiner_fourth_point,
)
from twistnets.nets import (
    evolve_complex_cr,
    evolve_net_circular,
    evolve_net_complex,
    hexahedron_complete,
    holonomy,
    lift_to_QS2,
)
from twistnets.contact import (
    NullLine,
    contact_element,
    null_line_real_point,
    pcen_adjacency_residual,
    pcen_face_closure,
    pcen_from_circular,
    pcen_from_complex_cr,
)
from twistnets.lie import QuatHermitianForm, lie_signature_report


def _report(num: int, label: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


def _hp(rng) -> HPoint:
    return HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))


def _imaginary_unit(rng) -> Quaternion:
    return Quaternion(0.0, *rng.standard_normal(3)).normalized()


def _random_line(rng) -> np.ndarray:
    return wedge(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                 rng.standard_normal(4) + 1j * rng.standard_normal(4))


def test_criterion_1_incidence_oracle():
    rng = np.random.default_rng(101)
    agree = 0
    total = 10_000
    for k in range(total):
        if k % 2 == 0:
            # share a spanning vector: incident by construction
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            a = wedge(v, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            b = wedge(v, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        else:
            a, b = _random_line(rng), _random_line(rng)
        v1, w1 = line_factorize(a)
        v2, w2 = line_factorize(b)
        s = np.linalg.svd(np.array([v1, w1, v2, w2]), compute_uv=False)
        oracle = s[3] < 1e-9 * s[0]
        if lines_incident(a, b, 1e-9) == oracle:
            agree += 1
    _report(1, "incidence matches the rank oracle", agree == total,
            f"{agree}/{total}")


def test_criterion_2_touching_criterion():
    rng = np.random.default_rng(102)
    ok = True
    half_seen = 0
    for k in range(1_000):
        r, n = _imaginary_unit(rng), _imaginary_unit(rng)
        c1 = Quaternion(*rng.standard_normal(4))
        c2 = Quaternion(*rng.standard_normal(4))
        a = sphere_translate(c1, r, n).eigenline()
        case = k % 3
        if case == 0:
            # same conformal data (R, N), different translate: the spheres
            # touch at the shared chart point at infinity
            b = sphere_translate(c2, r, n).eigenline()
            cc = classify_contact(a, b)
            ok &= cc.tag == "touch" and cc.witnesses[0].is_infinity()
        elif case == 1:
            # independent conformal data: never classified as touching
            b = sphere_translate(c2, _imaginary_unit(rng),
                                 _imaginary_unit(rng)).eigenline()
            ok &= classify_contact(a, b).tag not in ("touch", "identical")
        else:
            # incident lines through a generic lift point: the pencil has no
            # j-real member, so the spheres only half-touch
            v, w = line_factorize(a)
            x = v + 0.7 * w
            b = wedge(x, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            cc = classify_contact(a, b)
            p = line_meet_point(a, b)
            plane = plane_from_span([v, w, *line_factorize(b)])
            has_real = null_line_real_point(NullLine(p, plane)) is not None
            ok &= (cc.tag == "touch") == has_real
            if cc.tag == "half_touch":
                half_seen += 1
                ok &= not has_real
        if not ok:
            break
    ok &= half_seen > 0
    _report(2, "touch iff (R, N) match and fiber lies in the span", ok,
            f"{half_seen} half-touch cases")


def test_criterion_3_steiner_equals_parameter_cr():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1_000):
        gens = [twistor_fiber(_hp(rng)) for _ in range(3)]
        reg = regulus_build(*gens)
        zs = [complex(*rng.standard_normal(2)) for _ in range(4)]
        pts = [regulus_point(reg, z) for z in zs]
        got = steiner_cr(reg, *pts)
        want = complex_cr(*zs)
        if got.is_infinity() or want.is_infinity():
            worst = max(worst, 0.0 if got.is_infinity() == want.is_infinity()
                        else np.inf)
        else:
            worst = max(worst, abs(got.value() - want.value())
                        / max(1.0, abs(want.value())))
    _report(3, "Steiner cross-ratio equals the parameter cross-ratio",
            worst < 1e-9, f"max rel err {worst:.2e}")


def _random_real_cubes(rng, count):
    """The seven fibers of each of count cubes with concircular faces, (count,
    7, 6): per cube, four random points and three real cross ratios, drawn
    cube by cube; the far vertices of all faces are one quat_fourth_points
    call."""
    pairs, lams = [], []
    for _ in range(count):
        pairs.append(quat_pairs([_hp(rng) for _ in range(4)]))
        lams.append(rng.uniform(-3.0, -0.3, size=3))
    pairs = np.array(pairs)
    lifts = lift_rows(pairs)
    a, b = np.array(((1, 2), (1, 3), (2, 3))).T
    far = quat_fourth_points(lifts[:, a].reshape(-1, 4), np.repeat(lifts[:, 0], 3, axis=0),
                             lifts[:, b].reshape(-1, 4), np.ravel(lams))
    return fiber_rows(np.concatenate([pairs, pair_rows(far).reshape(count, 3, 2, 4)], axis=1))


def _j_real_defect(x: np.ndarray) -> float:
    x = normalize_proj(x)
    return proj_distance(normalize_proj(j_on_bivector(x)), x)


def test_criterion_4_reality_preservation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for cube in _random_real_cubes(rng, 10_000):
        eighth = hexahedron_complete(*cube)
        worst = max(worst, _j_real_defect(eighth))
    _report(4, "hexahedron completion preserves j-reality", worst < 1e-8,
            f"max defect {worst:.2e}")


def test_criterion_5_eight_point_property():
    rng = np.random.default_rng(105)
    worst = 0.0
    for cube in _random_real_cubes(rng, 1_000):
        eighth = hexahedron_complete(*cube)
        worst = max(worst, abs(quadric_pair(eighth, eighth)))
    _report(5, "eighth point lies on the quadric", worst < 1e-8,
            f"max residual {worst:.2e}")


def test_criterion_6_complex_cr_oracle_equivalence():
    rng = np.random.default_rng(106)
    lam = 0.35 + 0.8j
    n = 20
    curve = [complex(*rng.standard_normal(2)) for _ in range(n)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(n - 1)]
    net = evolve_net_complex(curve, seeds, lam)
    e = np.eye(4, dtype=complex)
    S = normalize_proj(wedge(e[0], e[2]))
    lifted = lift_to_QS2(S, net, lam)
    # independent propagation: boundary from the lift, interior faces closed
    # with the Steiner fourth point, no hexahedron completion involved
    prop = {}
    for m in range(n):
        prop[(m, 0)] = lifted[m, 0]
    for k in range(1, n):
        prop[(0, k)] = lifted[0, k]
    for k in range(1, n):
        for m in range(1, n):
            prop[(m, k)] = steiner_fourth_point(
                prop[(m, k - 1)], prop[(m - 1, k - 1)], prop[(m - 1, k)], lam)
    worst = max(proj_distance(prop[(m, k)], normalize_proj(lifted[m, k]))
                for m in range(n) for k in range(n))
    _report(6, "cross-ratio evolution agrees with conjugate-net propagation",
            worst < 1e-8, f"max distance {worst:.2e} on {n}x{n}")


def test_criterion_7_pcen_closure():
    rng = np.random.default_rng(107)
    n = 10
    curve = [_hp(rng) for _ in range(n)]
    seeds = [_hp(rng) for _ in range(n - 1)]
    base = evolve_net_circular(curve, seeds, -1.0)
    sphere = normalize_proj(wedge(
        base[0, 0].lift(),
        rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    pcen = pcen_from_circular(base, contact_element(base[0, 0], sphere))
    closure = pcen_face_closure(pcen)
    ok = closure < 1e-9
    # the alternating construction yields a PCEN over a non-circular base
    lam = 1j
    curve_c = [complex(*rng.standard_normal(2)) for _ in range(6)]
    seeds_c = [complex(*rng.standard_normal(2)) for _ in range(5)]
    base_c = evolve_net_complex(curve_c, seeds_c, lam)
    e = np.eye(4, dtype=complex)
    S = normalize_proj(wedge(e[0], e[2]))
    pcen_c = pcen_from_complex_cr(S, base_c)
    adjacency = pcen_adjacency_residual(pcen_c)
    ok &= adjacency < 1e-9
    ok &= all(null_line_real_point(pcen_c[idx]) is not None
              for idx in base_c.indices())
    _report(7, "PCEN closure on circular and lambda=i bases", ok,
            f"closure {closure:.2e}, adjacency {adjacency:.2e}")


def test_criterion_8_lie_signatures():
    rpt = lie_signature_report(QuatHermitianForm())
    ok = rpt["basis"] == (2, 4) and rpt["omega_slice"] == (1, 4)
    _report(8, "Lie quadric signatures", ok,
            f"basis {rpt['basis']}, omega slice {rpt['omega_slice']}")


def test_criterion_9_holonomy_closure():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        curve = [complex(*rng.standard_normal(2)) for _ in range(6)]
        h, eigenlines, parabolic = holonomy(curve, -1.0)
        closed = curve + [curve[0]]
        out = evolve_complex_cr([as_ext(z) for z in closed],
                                eigenlines[0], -1.0)
        first, last = out[0], out[-1]
        if first.is_infinity() or last.is_infinity():
            worst = max(worst, 0.0 if last.isclose(first, 1e-8) else np.inf)
        else:
            worst = max(worst, abs(last.value() - first.value()))
    _report(9, "eigenline-seeded evolution closes over 6-gons", worst < 1e-8,
            f"max gap {worst:.2e}")


def test_criterion_10_quat_cr_covariance():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        pts = [_hp(rng) for _ in range(4)]
        base = cr_invariant(quat_cr(*pts))
        for _ in range(100):
            m = tuple(tuple(Quaternion(*rng.standard_normal(4))
                            for _ in range(2)) for _ in range(2))
            moved = [moebius_apply(m, p) for p in pts]
            inv = cr_invariant(quat_cr(*moved))
            worst = max(worst, abs(inv.re - base.re),
                        abs(inv.abs_im - base.abs_im))
    _report(10, "quaternionic cross-ratio invariant pair is Moebius stable",
            worst < 1e-8, f"max drift {worst:.2e}")
