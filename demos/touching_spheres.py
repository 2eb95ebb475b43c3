"""Classify contact between two-spheres in S^4 via their twistor lines.

Every two-sphere (or point) of S^4 is a projective line in CP^3, equivalently
a point of the Pluecker quadric.  Running this script builds a few sphere
pairs with known geometry and prints how the classifier sees them: touching
at one point, half-touching at two, meeting in a circle, or disjoint.
"""

import numpy as np

from twistnets.quat import Quaternion
from twistnets.twistor import (
    classify_contact,
    j_on_bivector,
    j_on_vector,
    sphere_from_rhn,
    sphere_translate,
)
from twistnets.proj4 import wedge


def show(label, a, b):
    cc = classify_contact(a, b)
    pts = ", ".join("inf" if w.is_infinity() else str(w.affine())
                    for w in cc.witnesses)
    print(f"{label:36s} -> {cc.tag:20s} {pts}")


def main():
    i, j = Quaternion.i(), Quaternion.j()
    zero = Quaternion(0, 0, 0, 0)

    # two parallel copies of the complex plane inside H: tangent at infinity
    plane_c = sphere_from_rhn(i, zero, i).eigenline()
    shifted = sphere_translate(j, i, i).eigenline()
    show("parallel planes", plane_c, shifted)

    # same plane but with the conformal structure flipped on one side: the
    # two point sets agree yet only half the structure matches
    tilted = sphere_from_rhn(i, zero, j).eigenline()
    show("same plane, tilted structure", plane_c, tilted)

    # the complex plane against the line through the lifts of parameter i
    # and its j-image: half-touching at the conjugate pair {i, -i}
    e = np.eye(4, dtype=complex)
    x = e[0] * 1j + e[2]
    y = j_on_vector(e[0]) * 1j + j_on_vector(e[2])
    show("half-touch at conjugate pair", wedge(e[0], e[2]), wedge(x, y))

    # translates sharing only half the conformal data still pass through
    # infinity together and meet at one more point: half-touching pairs
    rng = np.random.default_rng(1)
    for k in range(3):
        r = Quaternion(0.0, *rng.standard_normal(3)).normalized()
        n = Quaternion(0.0, *rng.standard_normal(3)).normalized()
        a = sphere_translate(Quaternion(*rng.standard_normal(4)), r, n)
        r2 = Quaternion(0.0, *rng.standard_normal(3)).normalized()
        b = sphere_translate(Quaternion(*rng.standard_normal(4)), r2, n)
        show(f"random translates #{k}", a.eigenline(), b.eigenline())

    # the last pair with b's orientation reversed (its j-image line, the same
    # point set): the two lines no longer meet, but a meets b's j-image, the
    # classifier's circle case; its witness is a point on both spheres
    show("translates, one reversed", a.eigenline(), j_on_bivector(b.eigenline()))


if __name__ == "__main__":
    main()
