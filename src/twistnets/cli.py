"""Command line driver: net generation, verification reports and export.

Net documents are JSON files with a schema version, the lattice box, a value
kind (cp1, hp1, q4 or pcen) and one coordinate array per lattice index.
Complex numbers are stored as [re, im] pairs, quaternions as [w, x, y, z] and
Pluecker vectors as 12 reals; points at infinity are stored as null.  Every
number must be finite.  Exit codes: 0 success, 1 usage, I/O or malformed
document problems, 2 degenerate geometry, 3 a verification report exceeding
its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .quat import Quaternion
from . import proj4
from .proj4 import (
    FIBER_TOL,
    DocumentError,
    GeometryError,
    ProjPlane,
    normalize_proj,
    quadric_pair,
    wedge,
)
from .twistor import HPoint, is_j_real, twistor_project
from .xratio import INF, ExtC, as_ext, complex_cr
from .nets import (
    LatticeNet,
    evolve_net_circular,
    evolve_net_complex,
    face_planarity,
    hexahedron_complete,
    holonomy,
    is_conic_net,
    lift_to_QS2,
    sphere_frame,
    sphere_point,
)
from .contact import (
    NullLine,
    PCEN,
    closure_faces,
    null_line_real_point,
    pcen_adjacency_residual,
    pcen_face_closure,
)
from .lie import QuatHermitianForm, lie_signature_report

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization


def _complex_out(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _ext_out(z: ExtC):
    if z.is_infinity():
        return None
    v = z.value()
    return _complex_out(v)


def _hpoint_out(p: HPoint):
    if p.is_infinity():
        return None
    q = p.affine()
    return [q.w, q.x, q.y, q.z]


def _cvec_out(a: np.ndarray) -> list:
    """A complex vector (C^4 point, plane functional or bivector) as reals."""
    out = []
    for c in np.asarray(a, dtype=complex):
        out.extend(_complex_out(c))
    return out


def _reals(vals, count: int, what: str) -> list:
    """The `count` finite real numbers of a document value."""
    if not isinstance(vals, list) or len(vals) != count:
        raise DocumentError(f"{what} needs a list of {count} reals")
    for x in vals:
        try:
            finite = not isinstance(x, bool) and math.isfinite(x)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise DocumentError(f"{what} holds {x!r}, not a finite real")
    return vals


def _cvec_in(vals, count: int, what: str) -> np.ndarray:
    """A complex vector of `count` entries stored as 2 * count reals."""
    vals = _reals(vals, 2 * count, what)
    return np.array([complex(vals[2 * k], vals[2 * k + 1]) for k in range(count)])


def _hpoint_in(vals, what: str) -> HPoint:
    return HPoint.from_quaternion(Quaternion(*_reals(vals, 4, what)))


def _idx_key(idx) -> str:
    return ",".join(str(i) for i in idx)


def _key_idx(key: str) -> tuple:
    try:
        return tuple(int(p) for p in key.split(","))
    except ValueError as exc:
        raise DocumentError(f"entry index {key!r} is not a list of integers") from exc


def _doc_shape(doc: dict) -> tuple:
    """The document's lattice dimension and box, once its entries are an object."""
    dim, box = doc["dim"], doc["box"]
    if isinstance(dim, bool) or not isinstance(dim, int) or not isinstance(box, list) \
            or not all(isinstance(n, int) and not isinstance(n, bool) for n in box):
        raise DocumentError("document dim and box must be integers")
    if not isinstance(doc["entries"], dict):
        raise DocumentError("document entries must be an object")
    return dim, tuple(box)


def net_to_doc(net: LatticeNet) -> dict:
    """Serializable document for a lattice net (values chart-normalized)."""
    entries = {}
    for idx in sorted(net.values):
        v = net.values[idx]
        if net.kind == "cp1":
            entries[_idx_key(idx)] = _ext_out(as_ext(v))
        elif net.kind == "hp1":
            entries[_idx_key(idx)] = _hpoint_out(v)
        else:
            entries[_idx_key(idx)] = _cvec_out(v)
    doc = {
        "schema": SCHEMA_VERSION,
        "dim": net.dim,
        "box": list(net.shape),
        "kind": net.kind,
        "entries": entries,
        "metadata": _metadata_out(net.metadata),
    }
    return doc


def _metadata_out(md: dict) -> dict:
    out = {}
    for key, val in md.items():
        if key == "lambda":
            out["lambda"] = _complex_out(complex(val))
        elif key == "sphere":
            out["sphere"] = _cvec_out(val)
        else:
            out[key] = val
    return out


def _metadata_in(md: dict) -> dict:
    out = {}
    for key, val in md.items():
        if key == "lambda":
            re, im = _reals(val, 2, "lambda")
            out["lambda"] = complex(re, im)
        elif key == "sphere":
            out["sphere"] = _cvec_in(val, 6, "sphere")
        else:
            out[key] = val
    return out


def doc_to_net(doc: dict) -> LatticeNet:
    """Rebuild a lattice net from a parsed document (values kept verbatim)."""
    for field in ("schema", "dim", "box", "kind", "entries"):
        if field not in doc:
            raise GeometryError(f"document is missing field {field!r}")
    if doc["schema"] != SCHEMA_VERSION:
        raise GeometryError(f"unsupported schema version {doc['schema']!r}")
    kind = doc["kind"]
    if kind == "pcen":
        raise GeometryError("pcen documents are handled separately")
    dim, box = _doc_shape(doc)
    net = LatticeNet(dim, box, kind, metadata=_metadata_in(doc.get("metadata", {})))
    for key, vals in doc["entries"].items():
        idx = _key_idx(key)
        if len(idx) != net.dim:
            raise GeometryError(f"entry index {key!r} has wrong dimension")
        for i, n in zip(idx, net.shape):
            if not 0 <= i < n:
                raise GeometryError(f"entry index {key!r} outside the box")
        if kind == "cp1":
            if vals is None:
                net.values[idx] = INF
            else:
                re, im = _reals(vals, 2, f"cp1 entry {key!r}")
                net.values[idx] = ExtC(complex(re, im), 1.0)
        elif kind == "hp1":
            net.values[idx] = HPoint.infinity() if vals is None \
                else _hpoint_in(vals, f"hp1 entry {key!r}")
        else:
            # values are stored normalized; keep them verbatim so that a
            # re-export reproduces the file byte for byte
            net.values[idx] = _cvec_in(vals, 6, f"q4 entry {key!r}")
    return net


def pcen_to_doc(pcen: PCEN) -> dict:
    entries = {}
    for idx in sorted(pcen.elements):
        el = pcen.elements[idx]
        entry = {
            "point": _cvec_out(el.point),
            "plane": _cvec_out(el.plane.functional),
        }
        if idx in pcen.base.values:
            entry["base"] = _hpoint_out(pcen.base.values[idx])
        entries[_idx_key(idx)] = entry
    return {
        "schema": SCHEMA_VERSION,
        "dim": pcen.base.dim,
        "box": list(pcen.base.shape),
        "kind": "pcen",
        "entries": entries,
        "metadata": _metadata_out(pcen.base.metadata),
    }


def doc_to_pcen(doc: dict) -> PCEN:
    if doc.get("kind") != "pcen":
        raise GeometryError("not a pcen document")
    dim, box = _doc_shape(doc)
    base = LatticeNet(dim, box, "hp1", metadata=_metadata_in(doc.get("metadata", {})))
    elements = {}
    for key, entry in doc["entries"].items():
        idx = _key_idx(key)
        point = _cvec_in(entry["point"], 4, f"pcen point {key!r}")
        plane = ProjPlane(_cvec_in(entry["plane"], 4, f"pcen plane {key!r}"))
        elements[idx] = NullLine(point, plane)
        if entry.get("base") is not None:
            base.values[idx] = _hpoint_in(entry["base"], f"pcen base {key!r}")
    return PCEN(base, elements)


def load_doc(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _json_text(obj) -> str:
    """Indented, key-sorted JSON; a non-finite number, which JSON cannot
    hold, is reported as degenerate geometry (exit 2)."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GeometryError(f"non-finite value in output: {exc}") from exc


def dump_doc(doc: dict, path: str | None):
    text = _json_text(doc)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# small parsers


def parse_complex(text: str) -> complex:
    """Parse '-1', '2.5', '0+1i', '1-2j' style complex literals."""
    cleaned = text.strip().replace("i", "j").replace(" ", "")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise GeometryError(f"cannot parse complex number {text!r}") from exc


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    doc = load_doc(args.input)
    net = doc_to_net(doc)
    if net.dim != 1:
        raise GeometryError("evolve expects a one-dimensional curve document")
    n_pts = net.shape[0]
    if n_pts < 2 or not net.is_complete():
        print("error: curve document is empty or incomplete", file=sys.stderr)
        return 1
    curve = [net[(k,)] for k in range(n_pts)]
    lam = parse_complex(args.lam)
    steps = args.steps
    rng = np.random.default_rng(args.seed)

    if args.mode == "circular":
        if net.kind != "hp1":
            raise GeometryError("circular evolution needs an hp1 curve")
        if abs(lam.imag) > 1e-13:
            raise GeometryError("circular evolution needs a real lambda")
        out = evolve_net_circular(curve, _circular_seeds(net, steps, rng), lam.real)
    else:
        if net.kind != "cp1":
            raise GeometryError("complex evolution needs a cp1 curve")
        out = evolve_net_complex(curve, _complex_seeds(net, steps, rng), lam)
        if args.lift:
            out = lift_to_QS2(_sphere_arg(args), out, lam)
    dump_doc(net_to_doc(out), args.output)
    return 0


def _circular_seeds(net: LatticeNet, steps: int, rng) -> list:
    tv = net.metadata.get("transverse")
    if tv is not None:
        return [_hpoint_in(v, "transverse seed") for v in tv]
    return [HPoint.from_quaternion(
        Quaternion(*(rng.standard_normal(4) * (k + 1)))) for k in range(steps)]


def _complex_seeds(net: LatticeNet, steps: int, rng) -> list:
    tv = net.metadata.get("transverse")
    if tv is not None:
        return [complex(*_reals(v, 2, "transverse seed")) for v in tv]
    vals = rng.standard_normal((steps, 2))
    return [complex(a, b) for a, b in vals]


def _sphere_arg(args) -> np.ndarray:
    if getattr(args, "sphere", None):
        try:
            vals = [float(t) for t in args.sphere.split(",")]
        except ValueError as exc:
            raise DocumentError(f"--sphere: {exc}") from exc
        return _cvec_in(vals, 6, "--sphere")
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e2 = np.array([0, 0, 1, 0], dtype=complex)
    return normalize_proj(wedge(e1, e2))


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = load_doc(args.input)
    kind = doc.get("kind")
    tol = args.tol
    if args.report is None:
        report = {"cp1": "cr", "hp1": "planarity",
                  "q4": "planarity", "pcen": "pcen"}.get(kind)
        if report is None:
            raise GeometryError(f"unknown document kind {kind!r}")
    else:
        report = args.report
    rows, worst = _run_report(doc, report, tol)
    if args.json:
        out = {"report": report, "tol": tol, "max_residual": worst,
               "ok": bool(worst <= tol), "faces": rows}
        sys.stdout.write(_json_text(out))
    else:
        for row in rows:
            flag = "" if row["residual"] <= tol else "  FAIL"
            count = f" over {row['faces']} faces" if "faces" in row else ""
            print(f"{row['face']}: {row['residual']:.3e}{count}{flag}")
        print(f"max residual {worst:.3e} (tol {tol:g})")
    return 0 if worst <= tol else 3


def _run_report(doc: dict, report: str, tol: float):
    rows = []
    worst = 0.0
    if report == "pcen":
        pcen = doc_to_pcen(doc)
        # the closure leaves out the faces whose far vertex has no base point;
        # the row says how many faces it checked
        closure = pcen_face_closure(pcen)
        rows.append({"face": "closure", "residual": closure,
                     "faces": int(closure_faces(pcen).sum())})
        adjacency = pcen_adjacency_residual(pcen)
        rows.append({"face": "adjacency", "residual": float(adjacency)})
        return rows, max(closure, adjacency)
    net = doc_to_net(doc)
    if report == "planarity":
        for base, axes in net.faces():
            r = max(face_planarity(net, base, axes), _quadric_defect(net, base, axes))
            rows.append({"face": f"{_idx_key(base)}/{axes[0]}{axes[1]}",
                         "residual": r})
            worst = max(worst, r)
    elif report == "conic":
        for rep in is_conic_net(net, max(tol, 1e-12)):
            r = max(rep.planarity, _quadric_defect(net, rep.base, rep.axes))
            if not rep.irreducible:
                r = max(r, 1.0)  # reducible face counts as a failure
            rows.append({"face": f"{_idx_key(rep.base)}/{rep.axes[0]}{rep.axes[1]}",
                         "residual": r, "det": abs(rep.det)})
            worst = max(worst, r)
    elif report == "cr":
        lam = net.metadata.get("lambda")
        if lam is None:
            raise GeometryError("cross-ratio report needs lambda metadata")
        for base, axes in net.faces():
            z = net.face_vertices(base, axes)
            cr = complex_cr(z[1], z[0], z[3], z[2])
            r = np.inf if cr.is_infinity() else abs(cr.value() - complex(lam))
            rows.append({"face": f"{_idx_key(base)}/{axes[0]}{axes[1]}",
                         "residual": float(r)})
            worst = max(worst, r)
    else:
        raise GeometryError(f"unknown report {report!r}")
    return rows, float(worst)


def _quadric_defect(net: LatticeNet, base, axes) -> float:
    """Largest |<a, a>| over a q4 face's unit-scaled vertices, 0 for other
    kinds: a q4 value off the Pluecker quadric is no line of CP^3."""
    if net.kind != "q4":
        return 0.0
    return max(abs(quadric_pair(a, a))
               for a in map(normalize_proj, net.face_vertices(base, axes)))


# ---------------------------------------------------------------------------
# export


_CHART_AXES = {"w": 0, "x": 1, "y": 2, "z": 3}


def _chart3(vals4: list, axis: int) -> list:
    return [v for k, v in enumerate(vals4) if k != axis]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_export(args) -> int:
    doc = load_doc(args.input)
    if args.target == "json":
        dump_doc(doc, args.output)
        return 0
    axis = _CHART_AXES[args.chart]
    lines = ["# twistnets export"]
    kind = doc.get("kind")
    if kind == "pcen":
        _export_pcen(doc, axis, lines)
    else:
        net = doc_to_net(doc)
        if net.kind in ("cp1", "hp1"):
            _export_lattice(net, axis, lines)
        elif net.kind == "q4":
            _export_spheres(net, axis, lines)
        else:
            raise GeometryError(f"cannot export nets of kind {net.kind!r}")
    text = "\n".join(lines) + "\n"
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


def _export_lattice(net: LatticeNet, axis: int, lines: list):
    """Vertex lattice with quad faces; infinite points are skipped."""
    index_of = {}
    for idx in sorted(net.values):
        v = net.values[idx]
        if net.kind == "cp1":
            coords = _ext_out(as_ext(v))
            coords = None if coords is None else [coords[0], coords[1], 0.0]
        else:
            affine = _hpoint_out(v)
            coords = None if affine is None else _chart3(affine, axis)
        if coords is None:
            _warn(f"skipping point at infinity at index {idx}")
            continue
        index_of[idx] = len(index_of) + 1
        lines.append("v " + " ".join(_fmt(c) for c in coords))
    if net.dim == 2:
        for base, axes in net.faces():
            quad = []
            for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
                idx = list(base)
                idx[axes[0]] += da
                idx[axes[1]] += db
                quad.append(index_of.get(tuple(idx)))
            if None in quad:
                continue
            lines.append("f " + " ".join(str(k) for k in quad))
    elif net.dim == 1:
        chain = [index_of[idx] for idx in sorted(index_of)]
        if len(chain) >= 2:
            lines.append("l " + " ".join(str(k) for k in chain))


def _sphere_center_radius(S: np.ndarray, axis: int, n_samples: int = 12):
    """Chart center and radius of a sphere line via sampled membership.

    Sampling the CP^1 parametrization of the sphere yields affine points; a
    least-squares circumsphere fit recovers center and radius.  Returns None
    when a sample is infinite or the samples are not concentric in the chart
    (the sphere is flat or not aligned with the chosen chart).
    """
    frame = sphere_frame(S)
    samples = []
    for k in range(n_samples):
        t = 2.0 * np.pi * k / n_samples
        zval = complex(np.cos(t), np.sin(t)) * (1.4 if k % 2 else 0.6)
        p = twistor_project(sphere_point(frame, zval))
        if p.is_infinity():
            return None
        q = p.affine()
        samples.append([q.w, q.x, q.y, q.z])
    pts = np.array(samples)
    dropped = pts[:, axis]
    if np.ptp(dropped) > 1e-8 * max(1.0, float(np.max(np.abs(pts)))):
        return None
    pts3 = np.delete(pts, axis, axis=1)
    # |x|^2 - 2 c . x + d = 0 for every sample
    mat = np.column_stack([-2.0 * pts3, np.ones(len(pts3))])
    rhs = -np.sum(pts3 * pts3, axis=1)
    sol, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    center = sol[:3]
    r2 = float(center @ center - sol[3])
    if r2 <= 0:
        return None
    radius = float(np.sqrt(r2))
    resid = float(np.max(np.abs(mat @ sol - rhs)))
    if resid > 1e-6 * max(1.0, r2):
        return None
    return center, radius


def _export_spheres(net: LatticeNet, axis: int, lines: list,
                    rings: int = 12, segments: int = 16):
    offset = 0
    for idx in sorted(net.values):
        a = net.values[idx]
        if is_j_real(a, FIBER_TOL):
            p = twistor_project(proj4.line_point(a))
            affine = _hpoint_out(p)
            if affine is None:
                _warn(f"skipping point at infinity at index {idx}")
                continue
            lines.append("v " + " ".join(_fmt(c) for c in _chart3(affine, axis)))
            offset += 1
            continue
        fit = _sphere_center_radius(a, axis)
        if fit is None:
            _warn(f"skipping sphere at index {idx}: flat or not chart-round")
            continue
        center, radius = fit
        offset = _emit_uv_sphere(lines, center, radius, rings, segments, offset)


def _emit_uv_sphere(lines: list, center, radius: float,
                    rings: int, segments: int, offset: int) -> int:
    verts = []
    for i in range(rings + 1):
        theta = np.pi * i / rings
        for k in range(segments):
            phi = 2.0 * np.pi * k / segments
            verts.append([
                center[0] + radius * np.sin(theta) * np.cos(phi),
                center[1] + radius * np.sin(theta) * np.sin(phi),
                center[2] + radius * np.cos(theta),
            ])
    for v in verts:
        lines.append("v " + " ".join(_fmt(c) for c in v))
    for i in range(rings):
        for k in range(segments):
            a = offset + i * segments + k + 1
            b = offset + i * segments + (k + 1) % segments + 1
            c = offset + (i + 1) * segments + (k + 1) % segments + 1
            d = offset + (i + 1) * segments + k + 1
            lines.append(f"f {a} {b} {c} {d}")
    return offset + len(verts)


def _export_pcen(doc: dict, axis: int, lines: list):
    pcen = doc_to_pcen(doc)
    for idx in sorted(pcen.elements):
        p = null_line_real_point(pcen.elements[idx])
        if p is None:
            _warn(f"skipping half-contact element at index {idx}")
            continue
        affine = _hpoint_out(p)
        if affine is None:
            _warn(f"skipping point at infinity at index {idx}")
            continue
        lines.append("v " + " ".join(_fmt(c) for c in _chart3(affine, axis)))


# ---------------------------------------------------------------------------
# hexahedron / holonomy / lie-report


def cmd_hexahedron(args) -> int:
    data = load_doc(args.input)
    pts = data.get("points")
    if not isinstance(pts, list) or len(pts) != 7:
        print("error: hexahedron input needs a 'points' list of 7 bivectors",
              file=sys.stderr)
        return 1
    vs = [_cvec_in(p, 6, "hexahedron point") for p in pts]
    eighth = hexahedron_complete(*vs)
    resid = abs(quadric_pair(eighth, eighth))
    if args.json:
        sys.stdout.write(_json_text({"eighth": _cvec_out(eighth),
                                     "quadric_residual": resid}))
    else:
        print("eighth point:")
        print("  " + " ".join(_fmt(c) for c in _cvec_out(eighth)))
        print(f"quadric residual: {resid:.3e}")
    return 0


def cmd_holonomy(args) -> int:
    doc = load_doc(args.input)
    net = doc_to_net(doc)
    if net.kind != "cp1" or net.dim != 1:
        raise GeometryError("holonomy expects a one-dimensional cp1 document")
    curve = [net[(k,)] for k in range(net.shape[0])]
    lam = parse_complex(args.lam)
    h, eigenlines, parabolic = holonomy(curve, lam)
    if args.json:
        sys.stdout.write(_json_text({
            "matrix": [[_complex_out(h[i, j]) for j in range(2)]
                       for i in range(2)],
            "eigenlines": [_ext_out(l) for l in eigenlines],
            "parabolic": bool(parabolic),
        }))
    else:
        print("holonomy matrix:")
        for i in range(2):
            print("  " + "  ".join(
                f"{h[i, j].real:+.12g}{h[i, j].imag:+.12g}i" for j in range(2)))
        for k, l in enumerate(eigenlines):
            label = "inf" if l.is_infinity() else f"{l.value():.12g}"
            print(f"eigenline {k}: {label}")
        print(f"parabolic: {parabolic}")
    return 0


def cmd_lie_report(args) -> int:
    report = lie_signature_report(QuatHermitianForm())
    if args.json:
        sys.stdout.write(_json_text({
            "basis_signature": list(report["basis"]),
            "omega_slice_signature": list(report["omega_slice"]),
            "dimension": report["dimension"],
        }))
    else:
        print(f"basis signature: {report['basis']}")
        print(f"omega-slice signature: {report['omega_slice']}")
        print(f"dimension: {report['dimension']}")
    if report["basis"] != (2, 4) or report["omega_slice"] != (1, 4):
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8,
                        help="residual tolerance (default 1e-8)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized constructions")

    parser = argparse.ArgumentParser(
        prog="twistnets",
        description="discrete nets and sphere geometry in twistor space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[common],
                       help="evolve a curve document into a net")
    p.add_argument("input", help="curve document (JSON), '-' for stdin")
    p.add_argument("--mode", choices=("circular", "complex"), required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="cross ratio, e.g. -1 or 0+1i")
    p.add_argument("--steps", type=int, default=4,
                   help="number of evolution rows (default 4)")
    p.add_argument("--lift", action="store_true",
                   help="lift the evolved complex net into the sphere quadric")
    p.add_argument("--sphere", help="12 comma-separated reals for the sphere")
    p.add_argument("--output", "-o", help="output path (default stdout)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("check", parents=[common],
                       help="residual report for a net document")
    p.add_argument("input")
    p.add_argument("--report", choices=("planarity", "conic", "cr", "pcen"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", parents=[common],
                       help="export a net document to OBJ or JSON")
    p.add_argument("input")
    p.add_argument("--target", choices=("obj", "json"), default="obj")
    p.add_argument("--chart", choices=tuple(_CHART_AXES), default="w",
                   help="affine coordinate dropped for 3d display")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("hexahedron", parents=[common],
                       help="complete a combinatorial cube from 7 points")
    p.add_argument("input", help="JSON file with a 'points' list of 7 bivectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hexahedron)

    p = sub.add_parser("holonomy", parents=[common],
                       help="holonomy matrix and eigenlines of a closed curve")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("lie-report", parents=[common],
                       help="signatures of the real structure reduction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lie_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
