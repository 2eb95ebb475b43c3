"""The contact and coin kernels against reference copies of their earlier
forms, which rebuilt each line's unit scaling and j-image in every predicate.

classify_contact, circle_to_Q3 and touching_coins_check must give the
reference's tags, its CoinReport tags and generic flag, witnesses and
outputs within 1e-12, and its GeometryError messages: on pairs of every
contact class, in both orders and orientations, at scales r e^(i psi).
"""

import math

import numpy as np
import pytest

from twistnets.lie import QuatHermitianForm, circle_to_Q3, touching_coins_check
from twistnets.proj4 import (
    INCIDENCE_TOL,
    RANK_CUT,
    GeometryError,
    QUADRIC_MATRIX,
    line_factorize,
    line_meet_point,
    line_point,
    lines_incident,
    meet_join,
    normalize_proj,
    nullspace,
    proj_distance,
    quadric_pair,
    quadric_roots,
    sort_key,
    svd_rank,
    wedge,
)
from twistnets import twistor
from twistnets.quat import Quaternion
from twistnets.twistor import (
    ContactClass,
    HPoint,
    classify_contact,
    is_j_real,
    j_on_bivector,
    j_on_vector,
    plane_fiber,
    sphere_translate,
    twistor_fiber,
)

FORM = QuatHermitianForm()
AGREE = 1e-12
TAGS = ("identical", "touch", "half_touch", "circle_intersection", "disjoint")

# ---------------------------------------------------------------------------
# reference copies


def _reference_twistor_project(v):
    v = np.asarray(v, dtype=complex)
    if np.linalg.norm(v) == 0.0:
        raise GeometryError("cannot project zero vector")
    v = v / np.linalg.norm(v)
    return HPoint(Quaternion.from_complex_pair(v[0], v[1]),
                  Quaternion.from_complex_pair(v[2], v[3]))


def _reference_classify_contact(a, b):
    bj = j_on_bivector(b)
    if proj_distance(a, b) < 1e-8 or proj_distance(a, bj) < 1e-8:
        return ContactClass("identical", ())
    if lines_incident(a, b, 1e-8):
        p, plane = meet_join(a, b)
        if plane.residual(j_on_vector(p)) < 1e-8:
            return ContactClass("touch", (_reference_twistor_project(p),))
        fiber_point = line_point(plane_fiber(plane))
        return ContactClass("half_touch", (_reference_twistor_project(p),
                                           _reference_twistor_project(fiber_point)))
    if lines_incident(a, bj, 1e-8):
        return ContactClass("circle_intersection",
                            (_reference_twistor_project(line_meet_point(a, bj)),))
    return ContactClass("disjoint", ())


def _reference_circle_to_Q3(p1, p2, p3, form=FORM):
    for p in (p1, p2, p3):
        if not form.is_null_point(p, 1e-7):
            raise GeometryError("point is not on the three-sphere")
    fibers = [twistor_fiber(p) for p in (p1, p2, p3)]
    rows = [f @ QUADRIC_MATRIX for f in fibers] + [form.omega_vec]
    ns = nullspace(np.array(rows))
    if ns.shape[1] != 2:
        raise GeometryError("collinear or coincident circle points")
    roots = quadric_roots(ns[:, 0], ns[:, 1])
    roots = [x for x in roots if abs(quadric_pair(x, x)) < INCIDENCE_TOL]
    if len(roots) != 2:
        raise GeometryError("circle pencil has no two quadric points")
    roots.sort(key=sort_key)
    a, b = roots
    if proj_distance(j_on_bivector(a), b) > 1e-6:
        raise GeometryError("circle representatives are not a j-pair")
    return a, b


def _reference_oriented_contact(a, b):
    cc = _reference_classify_contact(a, b)
    if cc.tag == "touch":
        return cc, b
    alt = normalize_proj(j_on_bivector(b))
    cc2 = _reference_classify_contact(a, alt)
    if cc2.tag == "touch":
        return cc2, alt
    return cc, b


def _reference_polar_spheres(lines):
    pol = nullspace(np.array([x @ QUADRIC_MATRIX for x in lines]), RANK_CUT)
    if pol.shape[1] != 2:
        return None
    return sorted((x for x in quadric_roots(pol[:, 0], pol[:, 1])
                   if abs(quadric_pair(x, x)) < INCIDENCE_TOL and not is_j_real(x, 1e-6)),
                  key=sort_key)


def _reference_touching_coins_check(circles):
    circles = [normalize_proj(c) for c in circles]
    if len(circles) != 4:
        raise GeometryError("need exactly four circles")
    tags, points, oriented = [], [], list(circles)
    for k in range(4):
        cc, fixed = _reference_oriented_contact(oriented[k], circles[(k + 1) % 4])
        oriented[(k + 1) % 4] = fixed
        tags.append(cc.tag)
        if cc.tag != "touch" or not cc.witnesses:
            raise GeometryError(f"circles {k} and {(k + 1) % 4} do not touch")
        points.append(cc.witnesses[0])
    if svd_rank(np.array(oriented), RANK_CUT)[0] < 4:
        raise GeometryError("common-sphere degeneracy: representatives span "
                            "fewer than four dimensions")
    spheres = _reference_polar_spheres([twistor_fiber(p) for p in points])
    generic = spheres is not None
    if not generic:
        spheres = _reference_polar_spheres(oriented)
    if not spheres:
        raise GeometryError("no sphere in contact with the four circles")
    sphere = spheres[0]
    sphere_tags = []
    for c in oriented:
        cc = _reference_classify_contact(sphere, c)
        if cc.tag not in ("half_touch",):
            cc2 = _reference_classify_contact(sphere, j_on_bivector(c))
            if cc2.tag == "half_touch":
                cc = cc2
        sphere_tags.append(cc.tag)
    return tags, points, sphere, sphere_tags, generic


# ---------------------------------------------------------------------------
# inputs


def _phase(rng):
    r, psi = 10.0 ** rng.uniform(-6.0, 6.0), rng.uniform(0.0, 2 * math.pi)
    return r * complex(math.cos(psi), math.sin(psi))


def _imaginary_unit(rng):
    return Quaternion(0.0, *rng.standard_normal(3)).normalized()


def _sphere(rng, r=None, n=None):
    return sphere_translate(Quaternion(*rng.standard_normal(4)),
                            r or _imaginary_unit(rng), n or _imaginary_unit(rng)).eigenline()


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _pair_of_class(kind, rng):
    """Two lines meant to be of the contact class kind, as criterion 2 and
    the twistor tests build them (a half-touch pencil sometimes touches)."""
    r, n = _imaginary_unit(rng), _imaginary_unit(rng)
    a = _sphere(rng, r, n)
    if kind == "identical":
        return a, _phase(rng) * (a if rng.random() < 0.5 else j_on_bivector(a))
    if kind == "touch":
        return a, _sphere(rng, r, n)
    if kind == "half_touch":
        v, w = line_factorize(a)
        return a, wedge(v + 0.7 * w, _complex(rng, 4))
    if kind == "circle_intersection":
        return a, j_on_bivector(_sphere(rng, _imaginary_unit(rng), n))
    # disjoint: two generic lines meet neither each other nor their j-images
    return wedge(_complex(rng, 4), _complex(rng, 4)), wedge(_complex(rng, 4), _complex(rng, 4))


def _orientations(a, b, rng):
    """(a, b) in both orders, each also against the other's j-image, all at
    scales r e^(i psi)."""
    for x, y in ((a, b), (b, a)):
        for z in (y, j_on_bivector(y)):
            yield _phase(rng) * x, _phase(rng) * z


def _same_witnesses(got, want):
    return len(got) == len(want) and all(g.isclose(w, AGREE) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# classify_contact


@pytest.mark.parametrize("kind", TAGS)
def test_classify_contact_is_the_reference(kind):
    rng = np.random.default_rng(TAGS.index(kind) + 40)
    seen = set()
    for _ in range(15):
        for a, b in _orientations(*_pair_of_class(kind, rng), rng):
            want = _reference_classify_contact(a, b)
            got = classify_contact(a, b)
            assert got.tag == want.tag
            assert _same_witnesses(got.witnesses, want.witnesses)
            seen.add(want.tag)
    # each construction reaches its class, in one orientation at least
    assert kind in seen


def _meeting_both_orientations(rng):
    """A sphere line b and a line a through a point of b and a point of its
    j-image: a meets both orientations of b."""
    b = _sphere(rng)
    (v, w), (vj, wj) = line_factorize(b), line_factorize(j_on_bivector(b))
    return wedge(v + rng.standard_normal() * w, vj + rng.standard_normal() * wj), b


@pytest.mark.parametrize("prefer", ["touch", "half_touch"])
def test_one_decision_settles_both_orientations_as_the_reference(prefer):
    # the rule touching_coins_check applies to each circle and to the common
    # sphere: the class of (a, b), unless only (a, j(b)) is of the class
    # preferred; _contact takes it from one set of pairings and meets
    rng = np.random.default_rng(49 + len(prefer))
    seen = set()
    for kind in TAGS + ("meets both",):
        for _ in range(8):
            pair = (_meeting_both_orientations(rng) if kind == "meets both"
                    else _pair_of_class(kind, rng))
            for a, b in _orientations(*pair, rng):
                a, b = normalize_proj(a), normalize_proj(b)
                want, flipped = _reference_classify_contact(a, b), False
                if want.tag != prefer:
                    alt = _reference_classify_contact(a, j_on_bivector(b))
                    if alt.tag == prefer:
                        want, flipped = alt, True
                tag, meet, got_flipped = twistor._contact(a, b, j_on_bivector(b), prefer)
                assert (tag, got_flipped) == (want.tag, flipped)
                assert _same_witnesses(twistor._witnesses(tag, meet), want.witnesses)
                seen.add((want.tag, flipped))
    # the preferred class is found both as given and by the j-image
    assert {(prefer, False), (prefer, True)} <= seen


def _non_decomposable_incident_pair(rng):
    """A bivector that is no line and a line it pairs to zero with."""
    a = _complex(rng, 6)
    v = _complex(rng, 4)
    # the linear functional w -> <a, v ^ w> and a w in its kernel
    f = np.array([quadric_pair(a, wedge(v, e)) for e in np.eye(4)])
    w = _complex(rng, 4)
    w = w - f.conj() * (f @ w) / (f @ f.conj())
    return a, wedge(v, w)


def test_classify_contact_raises_the_reference_errors():
    rng = np.random.default_rng(45)
    a, b = _non_decomposable_incident_pair(rng)
    line = _sphere(rng)
    cases = [(a, b), (b, a), (np.zeros(6), line), (line, np.zeros(6)),
             (1e-13 * line / np.linalg.norm(line), line)]
    for x, y in cases:
        with pytest.raises(GeometryError) as want:
            _reference_classify_contact(x, y)
        with pytest.raises(GeometryError) as got:
            classify_contact(x, y)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# circle_to_Q3


def _imag_point(v, rng=None):
    """The point [v : 1] of Im H, right-scaled by r e^(i psi) when rng is
    given."""
    q = Quaternion(0.0, *v)
    if rng is None:
        return HPoint.from_quaternion(q)
    z = _phase(rng)
    mu = Quaternion(z.real, z.imag, 0.0, 0.0)
    return HPoint(q * mu, mu)


def _same_vector(got, want):
    return np.abs(np.asarray(got) - np.asarray(want)).max() < AGREE


def test_circle_to_Q3_is_the_reference():
    rng = np.random.default_rng(46)
    for _ in range(40):
        points = [_imag_point(rng.standard_normal(3), rng) for _ in range(3)]
        want = _reference_circle_to_Q3(*points)
        got = circle_to_Q3(*points, FORM)
        assert all(_same_vector(g, w) for g, w in zip(got, want))


def test_circle_to_Q3_raises_the_reference_errors():
    p, q = _imag_point((1.0, 0.0, 0.0)), _imag_point((0.0, 1.0, 0.0))
    off = HPoint.from_quaternion(Quaternion(1.0, 0.0, 0.0, 0.0))
    for points in ((p, q, off), (off, p, q), (p, p, q), (p, q, q)):
        with pytest.raises(GeometryError) as want:
            _reference_circle_to_Q3(*points)
        with pytest.raises(GeometryError) as got:
            circle_to_Q3(*points, FORM)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# touching_coins_check


def _geodesic_circle(a, b, rng):
    """One representative, either orientation, of the circle through unit
    vectors a, b of S^2 that meets the unit sphere orthogonally, at a scale
    r e^(i psi); consecutive such circles touch."""
    c = (a + b) / (1.0 + float(a @ b))
    r = np.linalg.norm(a - c)
    u = (a - c) / r
    w = b - c - ((b - c) @ u) * u
    w = w / np.linalg.norm(w)
    points = [_imag_point(c + r * (np.cos(t) * u + np.sin(t) * w), rng)
              for t in (0.4, 1.3, 2.5)]
    return _phase(rng) * circle_to_Q3(*points, FORM)[rng.integers(2)]


def _coplanar_chain(rng):
    """Four pairwise tangent circles in one plane of Im H: contact points
    on one circle, the non-generic case."""
    radii = [1.0, 2.0, 1.5, 1.2]
    c1, c2 = np.array([0.0, 0.0]), np.array([3.0, 0.0])
    th = np.deg2rad(100.0)
    c3 = c2 + 3.5 * np.array([np.cos(th), np.sin(th)])
    d41, d34 = radii[3] + radii[0], radii[2] + radii[3]
    span = np.linalg.norm(c3 - c1)
    along = (d41 ** 2 - d34 ** 2 + span ** 2) / (2 * span)
    u = (c3 - c1) / span
    c4 = c1 + along * u - np.sqrt(d41 ** 2 - along ** 2) * np.array([-u[1], u[0]])
    chain = []
    for c, r in zip([c1, c2, c3, c4], radii):
        points = [_imag_point((c[0] + r * np.cos(t), c[1] + r * np.sin(t), 0.0), rng)
                  for t in (0.3, 2.4, 4.5)]
        chain.append(_phase(rng) * circle_to_Q3(*points, FORM)[rng.integers(2)])
    return chain


def _chains(rng):
    for _ in range(30):
        qs = [v / np.linalg.norm(v) for v in rng.standard_normal((4, 3))]
        yield [_geodesic_circle(qs[k - 1], qs[k], rng) for k in range(4)]
    for _ in range(3):
        yield _coplanar_chain(rng)


def test_touching_coins_check_is_the_reference():
    rng = np.random.default_rng(47)
    outcomes = set()
    for chain in _chains(rng):
        try:
            tags, points, sphere, sphere_tags, generic = _reference_touching_coins_check(chain)
        except GeometryError as exc:
            with pytest.raises(GeometryError) as got:
                touching_coins_check(chain, FORM)
            assert str(got.value) == str(exc)
            outcomes.add("raised")
            continue
        report = touching_coins_check(chain, FORM)
        assert report.contact_tags == tags and report.sphere_tags == sphere_tags
        assert report.generic == generic
        assert _same_witnesses(report.contact_points, points)
        assert proj_distance(report.sphere, sphere) < AGREE
        outcomes.add(generic)
    # generic and non-generic chains both occur
    assert {True, False} <= outcomes


def test_touching_coins_check_raises_the_reference_errors():
    rng = np.random.default_rng(48)
    qs = [v / np.linalg.norm(v) for v in rng.standard_normal((4, 3))]
    chain = [_geodesic_circle(qs[k - 1], qs[k], rng) for k in range(4)]
    broken = list(chain)
    broken[2] = _geodesic_circle(*[v / np.linalg.norm(v) for v in rng.standard_normal((2, 3))],
                                 rng)
    for circles in (broken, [chain[0]] * 4, chain[:3]):
        with pytest.raises(GeometryError) as want:
            _reference_touching_coins_check(circles)
        with pytest.raises(GeometryError) as got:
            touching_coins_check(circles, FORM)
        assert str(got.value) == str(want.value)
