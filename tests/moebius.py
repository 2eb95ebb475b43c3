"""Moebius maps of S^4 = HP^1 as a test oracle.

A matrix G = ((a, b), (c, d)) of four quaternions acts on the points of HP^1
by moebius_apply, on their lifts in C^4 by its complex matrix M =
twistor.quat_matrix(G), on lines (Pluecker 6-vectors) by the compound
matrix of M, and on plane functionals by M^-1 from the right.  M commutes
with the j-action, so it sends twistor fibers to twistor fibers, and the
constructions on S^4 commute with these actions: a construction of moved
data gives the moved construction.
"""

import numpy as np
from hypothesis import strategies as st

from twistnets.nets import LatticeNet
from twistnets.proj4 import BIVECTOR_PAIRS
from twistnets.quat import Quaternion
from twistnets.twistor import HPoint, quat_matrix, quat_pairs
from twistnets.xratio import moebius_apply

_I, _J = np.array(BIVECTOR_PAIRS).T


class Moebius:
    """The actions of one G on points, lifts, lines and plane functionals;
    the lifts, lines and functionals are rows over leading axes."""

    def __init__(self, g):
        self.g = g
        self.m = quat_matrix(g)
        self.m_inv = np.linalg.inv(self.m)
        # (v ^ w)_ij -> (Mv ^ Mw)_ij = sum over kl of (M_ik M_jl - M_il M_jk) (v ^ w)_kl
        m = self.m
        self.compound = m[_I][:, _I] * m[_J][:, _J] - m[_I][:, _J] * m[_J][:, _I]

    def point(self, p: HPoint) -> HPoint:
        return moebius_apply(self.g, p)

    def lift(self, v: np.ndarray) -> np.ndarray:
        return v @ self.m.T

    def line(self, a: np.ndarray) -> np.ndarray:
        return a @ self.compound.T

    def plane(self, f: np.ndarray) -> np.ndarray:
        return f @ self.m_inv

    def net(self, net: LatticeNet) -> LatticeNet:
        """An hp1 net with every vertex moved."""
        moved = quat_pairs([self.point(net[idx]) for idx in net.indices()])
        return LatticeNet(net.dim, net.shape, "hp1", data=moved.reshape(net.data.shape))

    def __repr__(self):
        return f"Moebius({self.g!r})"


def _moebius(seed: int) -> Moebius:
    rng = np.random.default_rng(seed)
    return Moebius(tuple(tuple(Quaternion(*rng.standard_normal(4)) for _ in range(2))
                         for _ in range(2)))


# G of four normal quaternions.  The constructions lose accuracy in
# proportion to the condition number of M: its median is 2.7, and the filter
# drops the near-singular G above 30, 1 draw in 20,000
moebius_maps = st.integers(0, 2 ** 32 - 1).map(_moebius).filter(
    lambda g: np.linalg.cond(g.m) < 30.0)
