import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistnets.quat import Quaternion
from twistnets.twistor import HPoint
from twistnets.xratio import quat_cr


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


def test_zero_quaternion_has_no_direction():
    with pytest.raises(ZeroDivisionError, match="^cannot normalize zero quaternion$"):
        Quaternion(0, 0, 0, 0).normalized()


# ---------------------------------------------------------------------------
# both ends of the float range


@pytest.mark.parametrize("s", [1e-160, 1e-170, 1e-300, 5e-324, 1e200, 1e300], ids=str)
def test_norms_and_inverses_of_quaternions_whose_squares_leave_the_float_range(s):
    # at 1e-170 norm() was 0.0 and normalized() and inverse() raised; at 1e200
    # inverse() was 0 and imag_norm() raised OverflowError.  At 1e-160 the
    # sum of squares is a subnormal float, which has lost most of its bits
    q = Quaternion(3 * s, 0.0, 4 * s)
    assert abs(q.norm() - 5 * s) <= 5 * s * 1e-15
    assert abs(Quaternion(0.0, 4 * s, 0.0, -3 * s).imag_norm() - 5 * s) <= 5 * s * 1e-15
    assert (q.normalized() - Quaternion(0.6, 0.0, 0.8)).norm() < 1e-15
    if s < 1e-308:
        # its inverse is above the largest float
        with pytest.raises(OverflowError):
            q.inverse()
    else:
        inv = q.inverse() * (25 * s)
        assert (inv - Quaternion(3.0, 0.0, -4.0)).norm() < 1e-14
        assert (q * q.inverse() - Quaternion.one()).norm() < 1e-15
    # a norm above the largest float is inf, as math.hypot gives it
    big = 1.5e308
    assert Quaternion(big, big).norm() == Quaternion(0.0, big, big).imag_norm() == math.inf


def test_quat_cr_of_points_closer_than_the_square_root_of_the_smallest_float():
    # raised ZeroDivisionError: (q2 - q3)^-1 squared |q2 - q3| = 1e-170
    points = [HPoint.from_quaternion(Quaternion(t)) for t in (1.0, 1e-170, 2e-170, 3.0)]
    cr = quat_cr(*points)
    assert abs(cr.w - 1.5e170) <= 1.5e170 * 1e-15 and cr.x == cr.y == cr.z == 0.0


_component = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(_component, min_size=4, max_size=4))
def test_in_range_quaternions_keep_the_plain_formulas_bits(parts):
    # where a sum of squares is a normal float, norm, imag_norm, inverse and
    # normalized are the formulas they were before the range rule, bit for bit
    w, x, y, z = parts
    q = Quaternion(*parts)
    n2 = w * w + x * x + y * y + z * z
    if sys.float_info.min <= n2 < math.inf:
        assert q.norm() == math.sqrt(n2)
        assert q.inverse() == q.conjugate() * (1.0 / n2)
        assert q.normalized() == q * (1.0 / math.sqrt(n2))
    i2 = x * x + y * y + z * z
    if sys.float_info.min <= i2 < math.inf:
        assert q.imag_norm() == math.sqrt(x ** 2 + y ** 2 + z ** 2)
