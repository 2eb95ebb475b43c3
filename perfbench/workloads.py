"""The benchmark's workloads: seeded inputs, one task each, and the gate that
checks every output.

Each input is built from a list of random points of HP^1 plus an auxiliary
random stream; the traced run's kernel microtimings take their inputs from
the first input's points (see ``layers.py``).  The library only ever
receives the generated inputs.
"""

from __future__ import annotations

import io
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from numpy.linalg import svd as _svd  # bound before the traced run counts calls

from twistnets.cli import main as cli_main
from twistnets.contact import (
    NullLine,
    contact_element,
    null_line_real_point,
    pcen_adjacency_residual,
    pcen_face_closure,
    pcen_from_circular,
)
from twistnets.lie import QuatHermitianForm, circle_to_Q3, touching_coins_check
from twistnets.nets import evolve_net_circular, face_planarity, hexahedron_complete
from twistnets.proj4 import (
    QUADRIC_MATRIX,
    GeometryError,
    line_factorize,
    line_meet_point,
    normalize_proj,
    plane_from_span,
    wedge,
)
from twistnets.quat import Quaternion
from twistnets.twistor import HPoint, classify_contact, sphere_translate, twistor_fiber
from twistnets.xratio import quat_fourth_point, regulus_build, regulus_point, steiner_cr

# Correctness bounds: residuals as in tests/test_acceptance.py and the
# default `twistnets check --tol`; the Steiner check as in criterion 3.
BOUND = 1e-8
STEINER_REL = 1e-9

# touching_coins_check tests the rank of the circle representatives as given,
# before it re-orients them, and so rejects about a third of valid geodesic
# chains with a GeometryError whose message starts with KNOWN_REJECTION.  Such
# a rejection is a known outcome, not a failed operation, when the benchmark
# confirms the defect on that chain (see _known_defect); it is counted apart
# and reported.  Any other raise is a wrong answer.
KNOWN_REJECTION = "common-sphere degeneracy"
RANK_TOL = 1e-8  # the singular-value cut of the library's rank test

FORM = QuatHermitianForm()

# span of the benchmark's own output checks, where they cost more than a
# few microseconds; the traced run counts it as glue
CHECK = "bench.check"


class Gate:
    """Counts attempted and failed operations, per operation label.

    An operation fails if it raises or misses its correctness bound; every
    failure is a wrong answer, which makes the run incorrect.  Confirmed
    known coin rejections are counted apart, in ``known``.
    """

    def __init__(self):
        self.tally = defaultdict(lambda: [0, 0])  # label -> [attempted, failed]
        self.wrong = 0
        self.known = 0
        self.reasons = Counter()
        self.residual = {}
        self.doc_bytes = []
        self._pending = []

    @contextmanager
    def chain(self, *labels):
        """Run dependent operations; a raise fails every one not yet checked."""
        self._pending = list(labels)
        for label in labels:
            self.tally[label][0] += 1
        try:
            yield
        except Exception as exc:  # any library failure counts against the chain
            head = str(exc).split(":")[0][:60]
            self.wrong += 1
            self.reasons[f"{self._pending[0]}: {type(exc).__name__}: {head}"] += 1
            for label in self._pending:
                self.tally[label][1] += 1
            self._pending = []
        if self._pending:
            raise RuntimeError(f"operations left unchecked: {self._pending}")

    def check(self, ok, residual=None, layer=None):
        label = self._pending.pop(0)
        if residual is not None:
            self.residual[layer] = max(self.residual.get(layer, 0.0), float(residual))
        if not ok:
            self.tally[label][1] += 1
            self.wrong += 1
            self.reasons[f"{label}: missed its bound"] += 1

    def reject(self, confirmed):
        """The pending operation raised the known coin rejection; it fails
        unless the defect is ``confirmed`` on its input."""
        label = self._pending.pop(0)
        if confirmed:
            self.known += 1
        else:
            self.tally[label][1] += 1
            self.wrong += 1
            self.reasons[f"{label}: rejection not explained by the known defect"] += 1

    def rejected_frac(self):
        """Share of coin checks that ended in a confirmed known rejection."""
        attempted = self.tally.get("touching_coins_check", (0, 0))[0]
        return self.known / attempted if attempted else 0.0

    @property
    def attempted(self):
        return sum(a for a, _ in self.tally.values())

    @property
    def failed(self):
        return sum(f for _, f in self.tally.values())


def random_points(rng, count):
    return [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))
            for _ in range(count)]


def _pair(a, b):
    return complex(a @ QUADRIC_MATRIX @ b)


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def _j_real_defect(x):
    """Sine of the angle between a bivector and its j-image (plain numpy)."""
    x = _unit(x)
    c = np.conj(x)
    y = np.array([c[0], c[4], -c[3], -c[2], c[1], c[5]])
    return float(np.linalg.norm(y - x * np.vdot(x, y)))


# ---------------------------------------------------------------------------
# circular_pcen: a circular net, its planarity report and a PCEN over it


@dataclass
class CircularInput:
    curve: list
    seeds: list
    lam: float
    sphere: np.ndarray


def make_circular(points, rng, size):
    curve, seeds = points[:size], points[size:2 * size - 1]
    lam = float(rng.uniform(-3.0, -0.3))
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return CircularInput(curve, seeds, lam, normalize_proj(wedge(curve[0].lift(), vec)))


def circular_task(inp, tr, gate):
    n = len(inp.curve)
    with gate.chain("evolve_net_circular", "face_planarity", "contact_element",
                    "pcen_from_circular", "pcen_face_closure",
                    "pcen_adjacency_residual"):
        with tr.span("nets.evolve_net_circular"):
            net = evolve_net_circular(inp.curve, inp.seeds, inp.lam)
        gate.check(net.shape == (n, n) and net.is_complete())
        with tr.span("nets.face_planarity"):
            res = [face_planarity(net, base, axes) for base, axes in net.faces()]
        worst = max(res)
        gate.check(len(res) == (n - 1) ** 2 and worst <= BOUND, worst, "nets")
        with tr.span("contact.contact_element"):
            el = contact_element(net[0, 0], inp.sphere)
        gate.check(abs(el.plane.functional @ el.point) <= BOUND)
        with tr.span("contact.pcen_from_circular"):
            pcen = pcen_from_circular(net, el)
        gate.check(len(pcen.elements) == n * n)
        with tr.span("contact.pcen_face_closure"):
            closure = pcen_face_closure(pcen)
        gate.check(closure <= BOUND, closure, "contact")
        with tr.span("contact.pcen_adjacency_residual"):
            adjacency = pcen_adjacency_residual(pcen)
        gate.check(adjacency <= BOUND, adjacency, "contact")


# ---------------------------------------------------------------------------
# cli_roundtrip: curve documents through `twistnets.cli.main`, in process

CLI_STEPS = 11  # evolution rows; a 12-point curve becomes a 12x12 net


@dataclass
class CliInput:
    cp1: str
    hp1: str
    lam_c: complex
    lam_r: float
    seed: int
    out: dict


def _curve_doc(kind, values):
    return {"schema": 1, "dim": 1, "box": [len(values)], "kind": kind,
            "entries": {str(k): v for k, v in enumerate(values)}, "metadata": {}}


def make_cli(points, rng, workdir, tag):
    quats = [p.affine() for p in points[:24]]
    hp1 = [[q.w, q.x, q.y, q.z] for q in quats[:12]]
    cp1 = [[q.w, q.x] for q in quats[12:24]]
    paths = {}
    for kind, values in (("cp1", cp1), ("hp1", hp1)):
        paths[kind] = os.path.join(workdir, f"{tag}-{kind}.json")
        with open(paths[kind], "w") as fh:
            json.dump(_curve_doc(kind, values), fh)
    out = {name: os.path.join(workdir, f"out-{name}")
           for name in ("q4.json", "q4.obj", "hp1.json", "hp1.obj")}
    lam_c = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
    lam_r = float(rng.uniform(-3.0, -0.3))
    return CliInput(paths["cp1"], paths["hp1"], lam_c, lam_r,
                    int(rng.integers(2 ** 31)), out)


def run_cli(argv):
    """One in-process CLI call: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def cli_calls(inp):
    o = inp.out
    common = ["--steps", str(CLI_STEPS), "--seed", str(inp.seed)]
    lam_c = f"--lambda={inp.lam_c.real!r}{inp.lam_c.imag:+.17g}i"
    return [
        ("cli.main.evolve_complex_lift", o["q4.json"],
         ["evolve", inp.cp1, "--mode", "complex", lam_c, "--lift", *common,
          "-o", o["q4.json"]]),
        ("cli.main.check_conic", None,
         ["check", o["q4.json"], "--report", "conic", "--json"]),
        ("cli.main.export_q4", o["q4.obj"], ["export", o["q4.json"], "-o", o["q4.obj"]]),
        ("cli.main.evolve_circular", o["hp1.json"],
         ["evolve", inp.hp1, "--mode", "circular", f"--lambda={inp.lam_r!r}",
          *common, "-o", o["hp1.json"]]),
        ("cli.main.check_planarity", None, ["check", o["hp1.json"], "--json"]),
        ("cli.main.export_hp1", o["hp1.obj"], ["export", o["hp1.json"], "-o", o["hp1.obj"]]),
    ]


def cli_task(inp, tr, gate):
    calls = cli_calls(inp)
    for path in inp.out.values():
        if os.path.exists(path):
            os.remove(path)
    with gate.chain(*(name for name, _, _ in calls)):
        for name, written, argv in calls:
            with tr.span(name):
                rc, stdout = run_cli(argv)
            if written is not None:
                gate.check(rc == 0 and os.path.getsize(written) > 0)
            else:
                report = json.loads(stdout) if rc in (0, 3) else {}
                gate.check(rc == 0 and report.get("ok") is True,
                           report.get("max_residual"), "nets")
    docs = [inp.out[name] for name in ("q4.json", "hp1.json")]
    gate.doc_bytes.append(sum(os.path.getsize(d) for d in docs if os.path.exists(d)))


# ---------------------------------------------------------------------------
# sphere_kernels: independent hexahedron, regulus, contact and coin instances


@dataclass
class SphereInput:
    cube: list
    regulus_gens: list
    zs: list
    cr_want: complex
    contacts: list   # (a, b, expected tag or None for "neither touch nor identical")
    coins: list      # four triples of points on S^3
    coin_fibers: list


def _imag_unit(p):
    q = p.affine()
    return Quaternion(0.0, q.x, q.y, q.z).normalized()


def geodesic_circle_points(a, b):
    """Three points of the circle through a, b in S^2 meeting it at right
    angles; consecutive circles of this kind touch at the shared point."""
    c = (a + b) / (1.0 + float(a @ b))
    r = np.linalg.norm(a - c)
    u = (a - c) / r
    w = b - c - ((b - c) @ u) * u
    w = w / np.linalg.norm(w)
    return [HPoint.from_quaternion(Quaternion(0.0, *(c + r * (np.cos(t) * u + np.sin(t) * w))))
            for t in (0.4, 1.3, 2.5)]


def real_cube(p, lams):
    """Seven fibers of a cube with concircular faces, as in acceptance criterion 4."""
    far = [quat_fourth_point(p[a], p[0], p[b], Quaternion.from_real(lam))
           for (a, b), lam in zip(((1, 2), (1, 3), (2, 3)), lams)]
    return [twistor_fiber(x) for x in list(p[:4]) + far]


def make_sphere(points, rng):
    p = points
    cube = real_cube(p, rng.uniform(-3.0, -0.3, size=3))
    # a regulus of three fibers and four parameters, as in criterion 3
    gens = [twistor_fiber(x) for x in p[4:7]]
    zs = [complex(*rng.standard_normal(2)) for _ in range(4)]
    z1, z2, z3, z4 = zs
    want = (z1 - z2) * (z3 - z4) / ((z2 - z3) * (z4 - z1))
    # touch, non-touch and half-touch pairs, as in criterion 2
    r, n = _imag_unit(p[9]), _imag_unit(p[10])
    a = sphere_translate(p[7].affine(), r, n).eigenline()
    touch = sphere_translate(p[8].affine(), r, n).eigenline()
    apart = sphere_translate(p[8].affine(), _imag_unit(p[11]), _imag_unit(p[12])).eigenline()
    v, w = line_factorize(a)
    half = wedge(v + 0.7 * w, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    plane = plane_from_span([v, w, *line_factorize(half)])
    has_real = null_line_real_point(NullLine(line_meet_point(a, half), plane)) is not None
    contacts = [(a, touch, "touch"), (a, apart, None),
                (a, half, "touch" if has_real else "half_touch")]
    # a chain of four geodesic circles, as in demos/coins_in_s3.py
    dirs = []
    for x in p[13:17]:
        q = _imag_unit(x)
        dirs.append(np.array([q.x, q.y, q.z]))
    coins = [geodesic_circle_points(dirs[k - 1], dirs[k]) for k in range(4)]
    fibers = [[twistor_fiber(x) for x in triple] for triple in coins]
    return SphereInput(cube, gens, zs, want, contacts, coins, fibers)


def _known_defect(pairs):
    """True if a common-sphere rejection of this coin chain is the known
    defect: the representatives as given (each pair's first) span fewer than
    four dimensions, while the chain re-oriented so that consecutive
    representatives touch (quadric pair 0, cyclically) spans four."""
    given = [_unit(a) for a, _ in pairs]
    chain = given[:1]
    for pair in pairs[1:]:
        chain.append(min(map(_unit, pair), key=lambda c: abs(_pair(chain[-1], c))))
    touching = all(abs(_pair(chain[k - 1], chain[k])) < BOUND for k in range(4))
    return (touching and _svd(np.array(given), compute_uv=False)[3] < RANK_TOL
            and _svd(np.array(chain), compute_uv=False)[3] > RANK_TOL)


def _contact_ok(cc, expected):
    if expected is None:
        return cc.tag not in ("touch", "identical")
    if cc.tag != expected:
        return False
    # the first construction touches at the chart point at infinity
    return expected != "touch" or cc.witnesses[0].is_infinity()


def sphere_task(inp, tr, gate):
    with gate.chain("hexahedron_complete"):
        with tr.span("nets.hexahedron_complete"):
            eighth = hexahedron_complete(*inp.cube)
        with tr.span(CHECK):
            worst = max(_j_real_defect(eighth), abs(_pair(_unit(eighth), _unit(eighth))))
        gate.check(worst < BOUND, worst, "nets")
    with gate.chain("steiner_cr"):
        with tr.span("xratio.regulus_build"):
            reg = regulus_build(*inp.regulus_gens)
        pts = []
        for z in inp.zs:
            with tr.span("xratio.regulus_point"):
                pts.append(regulus_point(reg, z))
        with tr.span("xratio.steiner_cr"):
            got = steiner_cr(reg, *pts)
        err = np.inf if got.is_infinity() else \
            abs(got.value() - inp.cr_want) / max(1.0, abs(inp.cr_want))
        gate.check(err < STEINER_REL, err, "xratio")
    for a, b, expected in inp.contacts:
        with gate.chain("classify_contact"):
            with tr.span("twistor.classify_contact"):
                cc = classify_contact(a, b)
            gate.check(_contact_ok(cc, expected))
    with gate.chain("circle_to_Q3", "touching_coins_check"):
        pairs, worst = [], 0.0
        for triple, fibers in zip(inp.coins, inp.coin_fibers):
            with tr.span("lie.circle_to_Q3"):
                pair = circle_to_Q3(*triple, FORM)
            with tr.span(CHECK):
                for c in map(_unit, pair):
                    worst = max(worst, abs(_pair(c, c)),
                                *(abs(_pair(c, _unit(f))) for f in fibers))
            pairs.append(pair)
        gate.check(worst < BOUND, worst, "lie")
        try:
            with tr.span("lie.touching_coins_check"):
                report = touching_coins_check([a for a, _ in pairs], FORM)
        except GeometryError as exc:
            if not str(exc).startswith(KNOWN_REJECTION):
                raise
            with tr.span(CHECK):
                confirmed = _known_defect(pairs)
            gate.reject(confirmed)
        else:
            gate.check(report.contact_tags == ["touch"] * 4
                       and report.sphere_tags == ["half_touch"] * 4)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    points: int   # random HP^1 points one input is made from
    pool: int     # distinct inputs a run cycles through; sphere_kernels needs
                  # many, as its task time depends on which coin chains are rejected
    make: object  # (points, rng, workdir, tag) -> input
    task: object  # (input, tracer, gate) -> None


SPECS = {
    "circular_pcen": Spec(47, 8, lambda pts, rng, wd, tag: make_circular(pts, rng, 24),
                          circular_task),
    "cli_roundtrip": Spec(24, 64, make_cli, cli_task),
    "sphere_kernels": Spec(17, 1024, lambda pts, rng, wd, tag: make_sphere(pts, rng),
                           sphere_task),
}


class Workload:
    """A workload's seeded input pool and its task."""

    def __init__(self, name, seed, workdir, pool=None):
        """``pool`` inputs (default: the spec's); the first ones do not
        depend on the pool size."""
        self.name = name
        self.workdir = workdir
        self.spec = SPECS[name]
        rng = np.random.default_rng(seed)
        self.inputs = []
        for k in range(pool or self.spec.pool):
            points = random_points(rng, self.spec.points)
            self.inputs.append(self.spec.make(points, rng, workdir, f"in{k}"))
            if k == 0:
                # the kernel microtimings take their inputs from these points
                self.points = points

    def run(self, i, tr, gate):
        self.spec.task(self.inputs[i % len(self.inputs)], tr, gate)
