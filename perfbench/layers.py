"""Per-layer probes and metrics of the traced run.

A workload's own traced tasks give spans for the calls its task makes.  The
probe then times everything else:

- kernel microtimings: each proj4, twistor and xratio function, and
  contact.propagate_element, batched over a dozen inputs built from the
  workload's own points;
- the other workloads' tasks, on their own inputs for this seed and at their
  own size, so that a task-level metric such as contact.pcen_from_circular.ms
  means the same on every workload;
- the public functions the CLI subcommands compose, on the documents of the
  first cli_roundtrip input.

A metric is taken from the workload's task spans when its task makes that
call, else from the kernel microtimings, else from the other workloads' tasks.
"""

from __future__ import annotations

import filecmp
import statistics

import numpy as np

from twistnets.cli import doc_to_net, dump_doc, load_doc, net_to_doc
from twistnets.contact import contact_element, propagate_element
from twistnets.nets import evolve_net_circular, evolve_net_complex, is_conic_net, lift_to_QS2
from twistnets.proj4 import (
    line_factorize,
    line_meet_point,
    meet_line,
    normalize_proj,
    nullspace,
    orthonormal_span,
    plane_from_span,
    wedge,
)
from twistnets.quat import Quaternion
from twistnets.twistor import HPoint, classify_contact, twistor_fiber
from twistnets.xratio import (
    complex_cr,
    complex_fourth_point,
    quat_fourth_point,
    regulus_build,
    regulus_point,
    steiner_cr,
)

import workloads
from workloads import BOUND, CLI_STEPS

BATCH = 12   # inputs per kernel microtiming batch
REPS = 5     # batches per kernel; the metric is the median batch
KERNELS, OTHERS = "kernels", "others"  # task ids of the two probe scopes
# tasks of each other workload the probe runs: one lattice or document task,
# or enough kernel bundles that the coin rejection share means something
PROBE_TASKS = {"circular_pcen": 1, "cli_roundtrip": 1, "sphere_kernels": 64}

# the sphere `twistnets evolve --lift` uses when none is given
DEFAULT_SPHERE = normalize_proj(wedge(np.eye(4)[0], np.eye(4)[2]))


def kernel_cases(points, rng):
    """(span name, function, argument tuples) for every kernel microtiming."""
    p = points[:BATCH + 4]
    idx = range(BATCH)
    lifts = [x.lift() for x in p]
    fibers = [twistor_fiber(x) for x in p]
    spans = [[*line_factorize(fibers[i]), lifts[i + 1]] for i in idx]
    planes = [plane_from_span(s) for s in spans]
    # sphere lines through a common lift point: incident pairs
    meets = [(wedge(lifts[i], lifts[i + 1]), wedge(lifts[i], lifts[i + 2])) for i in idx]
    spheres = [normalize_proj(a) for a, _ in meets]
    elements = [contact_element(p[i], spheres[i]) for i in idx]
    zs = [complex(x.affine().w, x.affine().x) for x in p]
    lam = Quaternion.from_real(float(rng.uniform(-3.0, -0.3)))
    lam_c = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
    regs = [regulus_build(*fibers[i:i + 3]) for i in idx]
    reg_points = [[regulus_point(regs[i], z) for z in zs[i:i + 4]] for i in idx]
    return [
        ("proj4.normalize_proj", normalize_proj, [(lifts[i],) for i in idx]),
        ("proj4.wedge", wedge, [(lifts[i], lifts[i + 1]) for i in idx]),
        ("proj4.line_factorize", line_factorize, [(fibers[i],) for i in idx]),
        ("proj4.line_meet_point", line_meet_point, meets),
        ("proj4.meet_line", meet_line, [(planes[i], fibers[i + 2]) for i in idx]),
        ("proj4.plane_from_span", plane_from_span, [(s,) for s in spans]),
        ("proj4.nullspace", nullspace, [(np.array(s),) for s in spans]),
        ("proj4.orthonormal_span", orthonormal_span, [(s,) for s in spans]),
        ("twistor.HPoint.lift", HPoint.lift, [(p[i],) for i in idx]),
        ("twistor.twistor_fiber", twistor_fiber, [(p[i],) for i in idx]),
        ("twistor.HPoint.isclose", HPoint.isclose, [(p[i], p[i + 1]) for i in idx]),
        ("twistor.classify_contact", classify_contact, meets),
        ("xratio.quat_fourth_point", quat_fourth_point,
         [(p[i], p[i + 1], p[i + 2], lam) for i in idx]),
        ("xratio.complex_fourth_point", complex_fourth_point,
         [(zs[i], zs[i + 1], zs[i + 2], lam_c) for i in idx]),
        ("xratio.complex_cr", complex_cr, [tuple(zs[i:i + 4]) for i in idx]),
        ("xratio.regulus_build", regulus_build, [tuple(fibers[i:i + 3]) for i in idx]),
        ("xratio.steiner_cr", steiner_cr, [(regs[i], *reg_points[i]) for i in idx]),
        ("contact.propagate_element", propagate_element,
         [(elements[i], p[i + 1]) for i in idx]),
    ]


def time_kernels(cases, tr, gate):
    """REPS spans per kernel, each covering one call per input."""
    for name, fn, arglist in cases:
        with gate.chain(name):
            for _ in range(REPS):
                with tr.span(name, calls=len(arglist)):
                    for args in arglist:
                        fn(*args)
            gate.check(True)


def composed_cli(inp, tr, gate):
    """The public functions the CLI subcommands compose, on the same documents.

    Rebuilding each evolved document from the library API must reproduce the
    subcommand's output byte for byte.
    """
    again = inp.out["q4.json"] + ".api"
    with gate.chain("composed_q4", "composed_hp1"):
        with tr.span("cli.load_doc"):
            doc = load_doc(inp.cp1)
        with tr.span("cli.doc_to_net"):
            curve = doc_to_net(doc)
        seeds = [complex(a, b) for a, b in
                 np.random.default_rng(inp.seed).standard_normal((CLI_STEPS, 2))]
        with tr.span("nets.evolve_net_complex"):
            net = evolve_net_complex([curve[(k,)] for k in range(curve.shape[0])],
                                     seeds, inp.lam_c)
        with tr.span("nets.lift_to_QS2"):
            lifted = lift_to_QS2(DEFAULT_SPHERE, net, inp.lam_c)
        with tr.span("cli.net_to_doc"):
            doc = net_to_doc(lifted)
        with tr.span("cli.dump_doc"):
            dump_doc(doc, again)
        gate.check(filecmp.cmp(again, inp.out["q4.json"], shallow=False))
        with tr.span("cli.load_doc"):
            doc = load_doc(inp.out["q4.json"])
        with tr.span("cli.doc_to_net"):
            q4 = doc_to_net(doc)
        with tr.span("nets.is_conic_net"):
            is_conic_net(q4, BOUND)

        with tr.span("cli.load_doc"):
            doc = load_doc(inp.hp1)
        with tr.span("cli.doc_to_net"):
            curve = doc_to_net(doc)
        rng = np.random.default_rng(inp.seed)
        seeds = [HPoint.from_quaternion(Quaternion(*(rng.standard_normal(4) * (k + 1))))
                 for k in range(CLI_STEPS)]
        net = evolve_net_circular([curve[(k,)] for k in range(curve.shape[0])],
                                  seeds, inp.lam_r)
        with tr.span("cli.net_to_doc"):
            doc = net_to_doc(net)
        with tr.span("cli.dump_doc"):
            dump_doc(doc, again)
        gate.check(filecmp.cmp(again, inp.out["hp1.json"], shallow=False))


def probe(wl, tr, gate, seed):
    """Everything the workload's own task does not time (see the module doc)."""
    rng = np.random.default_rng([seed, 1])
    with tr.task_scope(KERNELS, root=KERNELS):
        time_kernels(kernel_cases(wl.points, rng), tr, gate)
    with tr.task_scope(OTHERS, root=OTHERS):
        cli = wl
        for name, count in PROBE_TASKS.items():
            if name != wl.name:
                other = workloads.Workload(name, seed, wl.workdir, pool=count)
                for i in range(count):
                    other.run(i, tr, gate)
                if name == "cli_roundtrip":
                    cli = other
        if cli is wl:
            wl.run(0, tr, gate)  # the composed calls read input 0's outputs
        composed_cli(cli.inputs[0], tr, gate)


def span_metrics(tr):
    """Median seconds per call for each span name, from the first source of
    the workload's tasks, the kernel microtimings and the other workloads."""
    found = {}
    for name, start, end, parent, tid, calls in tr.spans:
        rank = 0 if isinstance(tid, int) else 1 if tid == KERNELS else 2
        found.setdefault(name, {}).setdefault(rank, []).append((end - start) / calls)
    return {name: statistics.median(by[min(by)]) for name, by in found.items()}
