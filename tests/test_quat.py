import numpy as np
import pytest

from twistnets.quat import Quaternion


def test_hamilton_products():
    i, j, k = Quaternion.i(), Quaternion.j(), Quaternion.k()
    assert (i * j).isclose(k)
    assert (j * k).isclose(i)
    assert (k * i).isclose(j)
    assert (i * i).isclose(Quaternion.from_real(-1.0))
    assert (j * j).isclose(Quaternion.from_real(-1.0))
    assert (k * k).isclose(Quaternion.from_real(-1.0))


def test_i_equals_jk():
    assert (Quaternion.j() * Quaternion.k()).isclose(Quaternion.i())


def test_complex_pair_split():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    z1, z2 = q.complex_pair()
    # q = z1 + j z2 with z2 = y - iz
    assert z1 == complex(1.0, 2.0)
    assert z2 == complex(3.0, -4.0)
    assert Quaternion.from_complex_pair(z1, z2).isclose(q)


def test_mul_inverse_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = Quaternion(*rng.standard_normal(4))
        b = Quaternion(*rng.standard_normal(4))
        assert abs((a * b).norm() - a.norm() * b.norm()) < 1e-12
        assert (a * a.inverse()).isclose(Quaternion.one(), 1e-10)
        # anti-automorphism of conjugation
        assert (a * b).conjugate().isclose(b.conjugate() * a.conjugate())


def test_imaginary_unit_characterization():
    # |v| = 1 and v imaginary <=> v^2 = -1
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = Quaternion(0.0, *rng.standard_normal(3)).normalized()
        assert (v * v).isclose(Quaternion.from_real(-1.0), 1e-10)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0, 0, 0, 0).inverse()
