"""The complex reference for the real section of the Pluecker quadric: the
twistor fibers v ^ vj of unit lifts as phase-normalized Pluecker rows.

Criteria 4 and 5 build their cubes from these rows, and the real-section
tests compare twistor.real_fiber_rows and the hp1 planarity readings
against them.
"""

import math

import numpy as np

from twistnets.nets import LatticeNet, box_cells
from twistnets.proj4 import normalize_rows, span_ratios, wedge_rows
from twistnets.quat import Quaternion
from twistnets.twistor import HPoint, j_on_vector


def lift_fiber_rows(v):
    """The twistor fibers v ^ vj of unit lifts v (..., 4), normalized."""
    return normalize_rows(wedge_rows(v, j_on_vector(v)))


def complex_face_ratios(net: LatticeNet) -> np.ndarray:
    """(s3 / s1, s4 / s1) of every face of an hp1 net over the complex fibers
    of its lifts, (faces, 2) in net.faces() order; NaN at a face with a
    missing vertex."""
    amb = np.zeros((net.present.size, 6), dtype=complex)
    present = net.present.reshape(-1)
    amb[present] = lift_fiber_rows(net.lifts().reshape(-1, 4)[present])
    _, _, corners = box_cells(net.shape, 2)
    complete = present[corners].all(axis=-1)
    ratios = np.full((len(corners), 2), np.nan)
    ratios[complete] = span_ratios(amb[corners[complete]])
    return ratios


def random_hp1_net(rng, shape, missing: float, on_circle: bool) -> LatticeNet:
    """An hp1 net of random points, or of random points of one round circle,
    which makes every face concircular; about a share `missing` of its
    vertices is left out."""
    center = rng.standard_normal(4)
    u, w = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    radius = rng.uniform(0.1, 3.0)
    net = LatticeNet(shape, "hp1")
    for idx in net.indices():
        if rng.random() < missing:
            continue
        t = rng.uniform(0.0, 2 * math.pi)
        q = center + radius * (math.cos(t) * u + math.sin(t) * w) if on_circle \
            else rng.standard_normal(4)
        net[idx] = HPoint.from_quaternion(Quaternion(*q))
    return net
