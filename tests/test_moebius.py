"""Moebius equivariance of the constructions on S^4 (tests/moebius.py).

The circular evolution of a moved boundary is the moved net, the PCEN of a
moved net and element is the moved PCEN, and the contact class of two
spheres does not change when both are moved.  The bounds are set from
measured distributions: over 3,000 random draws of each test's inputs, with
the filter of moebius_maps, the net's worst fiber distance had median
1.2e-14, 99th percentile 1.1e-13 and maximum 2.0e-12, and the PCEN's worst
point and plane distances median 4.8e-15, 99th percentile 2.2e-13 and
maximum 2.9e-12; the tails come from nets with nearly coincident points.
No contact class changed in 8,000 pairs.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moebius import moebius_maps
from twistnets.contact import NullLine, contact_element, pcen_from_circular
from twistnets.nets import evolve_net_circular
from twistnets.proj4 import (
    GeometryError,
    ProjPlane,
    normalize_rows,
    proj_distance_rows,
    span_residual_rows,
    wedge,
)
from twistnets.quat import Quaternion
from twistnets.twistor import HPoint, classify_contact, j_on_bivector, j_on_vector

EQUIVARIANT = 1e-11

rngs = st.integers(0, 2 ** 32 - 1).map(np.random.default_rng)
lams = st.tuples(st.floats(0.1, 3.0), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _vec(rng):
    return rng.standard_normal(4) + 1j * rng.standard_normal(4)


def _circular_net(rng, size, lam):
    """A size x size circular net from a random boundary, and the boundary."""
    points = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))
              for _ in range(2 * size - 1)]
    try:
        return evolve_net_circular(points[:size], points[size:], lam), points
    except GeometryError:
        assume(False)


@SETTINGS
@given(moebius_maps, rngs, lams)
def test_the_circular_evolution_of_a_moved_boundary_is_the_moved_net(g, rng, lam):
    net, points = _circular_net(rng, 12, lam)
    points = [g.point(p) for p in points]
    moved_net = evolve_net_circular(points[:12], points[12:], lam)
    v = moved_net.lifts()
    gap = span_residual_rows(normalize_rows(g.lift(net.lifts())), v, j_on_vector(v))
    assert gap.max() < EQUIVARIANT


@SETTINGS
@given(moebius_maps, rngs, lams)
def test_the_pcen_of_a_moved_net_is_the_moved_pcen(g, rng, lam):
    net, _ = _circular_net(rng, 10, lam)
    initial = contact_element(net[0, 0], wedge(net[0, 0].lift(), _vec(rng)))
    try:
        pcen = pcen_from_circular(net, initial)
    except GeometryError:
        assume(False)
    moved_initial = NullLine(g.lift(initial.point), ProjPlane(g.plane(initial.plane.functional)))
    moved_pcen = pcen_from_circular(g.net(net), moved_initial)
    assert proj_distance_rows(moved_pcen.points, g.lift(pcen.points)).max() < EQUIVARIANT
    assert proj_distance_rows(moved_pcen.functionals,
                              g.plane(pcen.functionals)).max() < EQUIVARIANT


@settings(SETTINGS, max_examples=50)
@given(moebius_maps, rngs)
def test_contact_classes_are_moebius_invariant(g, rng):
    # two of the four pairs are incident, through the point v of a: b in the
    # plane of a and v's fiber (a touch), and b through v (a half-touch);
    # the other two are b with a point of a on its j-image, and a random b
    v, w, x = _vec(rng), _vec(rng), _vec(rng)
    a = wedge(v, w)
    touch = wedge(v, complex(*rng.standard_normal(2)) * w
                  + complex(*rng.standard_normal(2)) * j_on_vector(v))
    for b in (touch, wedge(v, x), j_on_bivector(wedge(v, x)), wedge(_vec(rng), _vec(rng))):
        assert classify_contact(g.line(a), g.line(b)).tag == classify_contact(a, b).tag
