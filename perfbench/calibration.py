"""A fixed reference computation that tracks the machine's current speed.

On a shared machine the same task can take half as long again from one
minute to the next, in CPU time as well as wall time.  End-to-end task times
are therefore reported in reference seconds: the kernel below runs next to
every task, and one reference second is REF_RUNS runs of it, at whatever
speed the machine has while that task runs.  The kernel mixes the kinds of
work the library does -- small complex LAPACK calls, small array
construction, arithmetic on small Python objects -- and imports nothing from
twistnets, so a change to the library moves task times and leaves the unit
alone.
"""

from __future__ import annotations

import time

import numpy as np

REF_RUNS = 2000  # kernel runs per reference second

_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(8)]
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class _Quat:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w, self.x, self.y, self.z = w, x, y, z

    def __mul__(self, o):
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = o.w, o.x, o.y, o.z
        return _Quat(a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                     a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def kernel():
    """One run of the reference computation."""
    total = 0.0
    for m in _MATS:
        _, s, _ = np.linalg.svd(m)
        s3 = np.linalg.svd(m[:3], compute_uv=False)
        v = np.array([m[0, i] * m[1, j] - m[0, j] * m[1, i] for i, j in _PAIRS])
        v = v / np.linalg.norm(v)
        total += float(s[0] + s3[-1]) + abs(np.vdot(v, v))
    q, r = _Quat(0.3, 0.1, -0.2, 0.5), _Quat(0.9, 0.1, 0.05, -0.02)
    for _ in range(60):
        q = q * r
    return total + q.w


def run(count):
    """Seconds per kernel run, averaged over ``count`` runs."""
    t0 = time.perf_counter()
    for _ in range(count):
        kernel()
    return (time.perf_counter() - t0) / count
