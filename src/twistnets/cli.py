"""Command line driver: net generation, verification reports and export.

Net documents are JSON files with a schema version, the lattice box, a value
kind (cp1, hp1, cp3, q4 or pcen) and one coordinate array per lattice index.
Complex numbers are stored as [re, im] pairs, quaternions as [w, x, y, z],
C^4 vectors as 8 reals and Pluecker vectors as 12; points at infinity are
stored as null.  Every number must be finite.  Exit codes: 0 success, 1
usage, I/O or malformed document problems, 2 degenerate geometry, 3 a
verification report exceeding its tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .quat import Quaternion
from .proj4 import (
    RANK_CUT,
    DocumentError,
    GeometryError,
    normalize_proj,
    quadric_pair,
    span_ratios,
    wedge,
)
from .twistor import INF_PAIR, QUAT_ONE, HPoint, SphereEndo, affine_rows, sphere_from_line
from .xratio import REAL_TOL, ExtC, complex_cr
from .nets import (
    LatticeNet,
    box_cells,
    evolve_net_circular,
    evolve_net_complex,
    face_vectors,
    hexahedron_complete,
    holonomy,
    in_box,
    is_conic_net,
    lift_to_QS2,
    quadric_defects,
)
from .contact import (
    PCEN,
    closure_faces,
    null_line_real_point,
    pcen_adjacency_residual,
    pcen_face_closure,
)
from .lie import lie_signature_report

SCHEMA_VERSION = 1

# the most vertices a document's box or an evolved net may hold, a 1000 x 1000
# net: a q4 net of that size holds 96 MB of values, and its planarity report
# gathers four times as much per axis pair
MAX_VERTICES = 10 ** 6

# the most axes a document's box may have: numpy's 64, less an hp1 value's two
MAX_DIM = 62


# ---------------------------------------------------------------------------
# serialization


def _complex_out(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _ext_out(z: ExtC):
    return None if z.is_infinity() else _complex_out(z.value())


def _hpoint_out(p: HPoint):
    q = None if p.is_infinity() else p.affine()
    return None if q is None else [q.w, q.x, q.y, q.z]


def _cvec_out(a: np.ndarray) -> list:
    """A complex vector (C^4 point, plane functional or bivector) as reals."""
    return np.ascontiguousarray(a, dtype=complex).view(float).tolist()


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
    return np.array(_reals(vals, 2 * count, what), dtype=float).view(complex)


def _idx_key(idx) -> str:
    return ",".join(str(i) for i in idx)


def _entries_in(entries: dict, box: tuple):
    """(key, lattice index, value) of each document entry, for both readers:
    a key that is no index inside the box, or that names an index an
    earlier key names, raises."""
    seen = set()
    for key, value in entries.items():
        try:
            idx = tuple(int(p) for p in key.split(","))
        except ValueError as exc:
            raise DocumentError(f"entry index {key!r} is not a list of integers") from exc
        if not in_box(idx, box):
            raise DocumentError(f"entry index {key!r} outside the box {list(box)}")
        if idx in seen:
            raise DocumentError(f"entry index {key!r} repeats index {idx}")
        seen.add(idx)
        yield key, idx, value


def _doc_header(doc) -> tuple:
    """A net or PCEN document's kind and box, its header checked."""
    _require_object(doc)
    for field in ("schema", "dim", "box", "kind", "entries"):
        if field not in doc:
            raise DocumentError(f"document is missing field {field!r}")
    if doc["schema"] != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema version {doc['schema']!r}")
    kind, dim, box = doc["kind"], doc["dim"], doc["box"]
    if kind not in ("cp1", "hp1", "cp3", "q4", "pcen"):
        raise DocumentError(f"unknown document kind {kind!r}")
    if isinstance(dim, bool) or not isinstance(dim, int) or not isinstance(box, list) \
            or not all(isinstance(n, int) and not isinstance(n, bool) for n in box):
        raise DocumentError("document dim and box must be integers")
    if not isinstance(doc["entries"], dict):
        raise DocumentError("document entries must be an object")
    if len(box) != dim or min(box, default=0) < 0:
        raise DocumentError("document box must hold dim sizes, none negative")
    if dim > MAX_DIM:
        raise DocumentError(f"document dim {dim} is over {MAX_DIM}")
    _require_box(box, "document box")
    return kind, tuple(box)


def _require_box(box, what: str):
    """Raise for a box of over MAX_VERTICES vertices, an empty axis counted
    as one (numpy cannot make so long an axis even when another is empty),
    before any array over it is made."""
    if math.prod(max(n, 1) for n in box) > MAX_VERTICES:
        raise DocumentError(f"{what} {list(box)} holds over {MAX_VERTICES} vertices")


def net_to_doc(net: LatticeNet) -> dict:
    """Serializable document for a lattice net (values chart-normalized)."""
    return _doc(net, net.kind, _entries_out(net))


def _doc(net: LatticeNet, kind: str, entries: dict) -> dict:
    """A document of the given kind with a net's box and metadata."""
    return {"schema": SCHEMA_VERSION, "dim": net.dim, "box": list(net.shape), "kind": kind,
            "entries": entries, "metadata": _metadata_out(net.metadata)}


def _entries_out(net: LatticeNet) -> dict:
    """The document entries of a net's values, by key in index order."""
    rows = net.data[net.present]
    if net.kind == "cp1":
        values = [_ext_out(ExtC(*z)) for z in rows.tolist()]
    elif net.kind == "hp1":
        q, at_inf = affine_rows(rows)
        values = [None if inf else v for v, inf in zip(q.tolist(), at_inf.tolist())]
    else:
        values = [_cvec_out(v) for v in rows]
    return {_idx_key(idx): v for idx, v in zip(net.present_indices(), values)}


def _metadata_out(md: dict) -> dict:
    return {key: _complex_out(complex(val)) if key == "lambda" else
            _cvec_out(val) if key == "sphere" else val for key, val in md.items()}


def _metadata_in(md) -> dict:
    if not isinstance(md, dict):
        raise DocumentError(f"document metadata must be an object, not {md!r}")
    return {key: complex(*_reals(val, 2, "lambda")) if key == "lambda" else
            _cvec_in(val, 6, "sphere") if key == "sphere" else val for key, val in md.items()}


def _require_object(doc):
    """Raise for a parsed document that is no JSON object."""
    if not isinstance(doc, dict):
        raise DocumentError(f"a document must be a JSON object, not {type(doc).__name__}")


def doc_to_net(doc: dict) -> LatticeNet:
    """Rebuild a lattice net from a parsed document (values kept verbatim)."""
    kind, box = _doc_header(doc)
    if kind == "pcen":
        raise GeometryError("this command needs a net document, not a pcen document")
    net = LatticeNet(box, kind, metadata=_metadata_in(doc.get("metadata", {})))
    # the document's values go into the fresh net's arrays as they are, so
    # that a re-export reproduces the file byte for byte
    for key, idx, vals in _entries_in(doc["entries"], box):
        what = f"{kind} entry {key!r}"
        if kind == "cp1":
            net.data[idx] = (1.0, 0.0) if vals is None else (complex(*_reals(vals, 2, what)), 1.0)
        elif kind == "hp1":
            net.data[idx] = INF_PAIR if vals is None else (_reals(vals, 4, what), QUAT_ONE)
        else:
            net.data[idx] = _cvec_in(vals, net.data.shape[-1], what)
        net.present[idx] = True
    return net


def pcen_to_doc(pcen: PCEN) -> dict:
    if pcen.base.kind != "hp1":
        raise GeometryError("pcen document needs an hp1 base net")
    base = _entries_out(pcen.base)
    entries = {}
    for idx in pcen.elements:
        key = _idx_key(idx)
        entries[key] = {"point": _cvec_out(pcen.points[idx]),
                        "plane": _cvec_out(pcen.functionals[idx])}
        if key in base:
            entries[key]["base"] = base[key]
    return _doc(pcen.base, "pcen", entries)


def doc_to_pcen(doc: dict) -> PCEN:
    kind, box = _doc_header(doc)
    if kind != "pcen":
        raise GeometryError("not a pcen document")
    base = LatticeNet(box, "hp1", metadata=_metadata_in(doc.get("metadata", {})))
    points = np.zeros(box + (4,), dtype=complex)
    functionals = np.zeros_like(points)
    present = np.zeros(box, dtype=bool)
    for key, idx, entry in _entries_in(doc["entries"], box):
        if not isinstance(entry, dict):
            raise DocumentError(f"pcen entry {key!r} must be an object")
        for field in ("point", "plane"):
            if field not in entry:
                raise DocumentError(f"pcen entry {key!r} is missing field {field!r}")
        points[idx] = _cvec_in(entry["point"], 4, f"pcen point {key!r}")
        functionals[idx] = _cvec_in(entry["plane"], 4, f"pcen plane {key!r}")
        present[idx] = True
        if entry.get("base") is not None:
            base.data[idx] = (_reals(entry["base"], 4, f"pcen base {key!r}"), QUAT_ONE)
            base.present[idx] = True
    return PCEN(base, points, functionals, present)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key that it repeats raises."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k in obj if sum(k == p for p, _ in pairs) > 1)
        raise DocumentError(f"key {key!r} repeats in a JSON object")
    return obj


def load_doc(path: str) -> dict:
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
    _require_object(doc)
    return doc


def _json_text(obj) -> str:
    """Indented, key-sorted JSON; a non-finite number, which JSON cannot
    hold, is reported as degenerate geometry (exit 2)."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GeometryError(f"non-finite value in output: {exc}") from exc


def dump_doc(doc: dict, path: str | None):
    _write_text(_json_text(doc), path)


def _write_text(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# small parsers


def parse_complex(text: str) -> complex:
    """Parse '-1', '2.5', '0+1i', '1-2j' style complex literals; text that is
    no finite complex number is a usage error."""
    try:
        z = complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        z = cmath.nan
    if not cmath.isfinite(z):
        raise DocumentError(f"cannot parse {text!r} as a finite complex number")
    return z


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    for bad, why in ((args.steps < 0, f"--steps {args.steps} is negative"),
                     (args.seed < 0, f"--seed {args.seed} is negative"),
                     (args.lift and args.mode != "complex", "--lift needs --mode complex"),
                     (args.sphere is not None and not args.lift, "--sphere needs --lift")):
        if bad:
            raise DocumentError(why)
    net = doc_to_net(load_doc(args.input))
    if net.dim != 1:
        raise GeometryError("evolve expects a one-dimensional curve document")
    n_pts = net.shape[0]
    if n_pts < 2 or not net.is_complete():
        raise DocumentError("curve document is empty or incomplete")
    curve = [net[(k,)] for k in range(n_pts)]
    lam = parse_complex(args.lam)
    steps, rng = args.steps, np.random.default_rng(args.seed)
    # the net to build: the curve, and a column per transverse seed, given
    # in the metadata or drawn
    tv = net.metadata.get("transverse")
    if tv is not None and not isinstance(tv, list):
        raise DocumentError(f"curve metadata transverse must be a list of seeds, not {tv!r}")
    _require_box((n_pts, (steps if tv is None else len(tv)) + 1), "evolved net")

    if args.mode == "circular":
        if net.kind != "hp1":
            raise GeometryError("circular evolution needs an hp1 curve")
        if abs(lam.imag) > REAL_TOL:
            raise GeometryError("circular evolution needs a real lambda")
        out = evolve_net_circular(curve, _circular_seeds(tv, steps, rng), lam.real)
    else:
        if net.kind != "cp1":
            raise GeometryError("complex evolution needs a cp1 curve")
        out = evolve_net_complex(curve, _complex_seeds(tv, steps, rng), lam)
        if args.lift:
            out = lift_to_QS2(_sphere_arg(args), out, lam)
    dump_doc(net_to_doc(out), args.output)
    return 0


def _circular_seeds(tv, steps: int, rng) -> list:
    if tv is not None:
        return [HPoint.from_quaternion(Quaternion(*_reals(v, 4, "transverse seed"))) for v in tv]
    return [HPoint.from_quaternion(
        Quaternion(*(rng.standard_normal(4) * (k + 1)))) for k in range(steps)]


def _complex_seeds(tv, steps: int, rng) -> list:
    if tv is not None:
        return [complex(*_reals(v, 2, "transverse seed")) for v in tv]
    return [complex(a, b) for a, b in rng.standard_normal((steps, 2))]


def _sphere_arg(args) -> np.ndarray:
    if args.sphere is not None:
        try:
            vals = [float(t) for t in args.sphere.split(",")]
        except ValueError as exc:
            raise DocumentError(f"--sphere: {exc}") from exc
        return _cvec_in(vals, 6, "--sphere")
    return normalize_proj(wedge(np.eye(4)[0], np.eye(4)[2]))


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise DocumentError(f"--tol {args.tol} is not a finite number of at least 0")
    doc = load_doc(args.input)
    tol = args.tol
    report = args.report or {"cp1": "cr", "pcen": "pcen"}.get(_doc_header(doc)[0], "planarity")
    rows, worst = _run_report(doc, report, tol)
    if args.json:
        worst_face = rows[int(np.argmax([row["residual"] for row in rows]))]["face"] \
            if rows else None
        out = {"report": report, "tol": tol, "max_residual": worst,
               "ok": bool(worst <= tol), "worst_face": worst_face, "faces": rows}
        sys.stdout.write(_json_text(out))
    else:
        for row in rows:
            flag = "" if row["residual"] <= tol else "  FAIL"
            count = f" over {row['faces']} faces" if "faces" in row else ""
            print(f"{row['face']}: {row['residual']:.3e}{count}{flag}")
        print(f"max residual {worst:.3e} (tol {tol:g})")
    return 0 if worst <= tol else 3


def _run_report(doc: dict, report: str, tol: float):
    """The report's rows and their largest residual."""
    if report == "pcen":
        pcen = doc_to_pcen(doc)
        # the closure leaves out the faces whose far vertex has no base point;
        # the row says how many faces it checked
        rows = [{"face": "closure", "residual": pcen_face_closure(pcen),
                 "faces": int(closure_faces(pcen).sum())},
                {"face": "adjacency", "residual": pcen_adjacency_residual(pcen)}]
    elif report == "planarity":
        net = doc_to_net(doc)
        faces, vecs = face_vectors(net)
        flat, resid = span_ratios(vecs).T
        if net.kind == "q4":
            resid = np.maximum(resid, quadric_defects(vecs))
        # a face spanning fewer than three dimensions lies in no unique plane
        resid = np.where(flat <= RANK_CUT, np.maximum(resid, 1.0), resid)
        rows = [{"face": _face_key(*f), "residual": r} for f, r in zip(faces, resid.tolist())]
    elif report == "conic":
        # a reducible face counts as a failure
        rows = [{"face": _face_key(rep.base, rep.axes), "det": abs(rep.det),
                 "residual": max(rep.planarity, rep.defect, 0.0 if rep.irreducible else 1.0)}
                for rep in is_conic_net(doc_to_net(doc), max(tol, 1e-12))]
    else:
        net = doc_to_net(doc)
        if net.kind != "cp1":
            raise GeometryError(f"cross-ratio reports need a cp1 net, not {net.kind}")
        lam = net.metadata.get("lambda")
        if lam is None:
            raise GeometryError("cross-ratio report needs lambda metadata")
        rows = []
        for base, axes in net.faces():
            z = net.face_vertices(base, axes)
            cr = complex_cr(z[1], z[0], z[3], z[2])
            r = np.inf if cr.is_infinity() else abs(cr.value() - complex(lam))
            rows.append({"face": _face_key(base, axes), "residual": float(r)})
    return rows, max((row["residual"] for row in rows), default=0.0)


def _face_key(base, axes) -> str:
    return f"{_idx_key(base)}/{axes[0]}{axes[1]}"


# ---------------------------------------------------------------------------
# export


_CHART_AXES = {"w": 0, "x": 1, "y": 2, "z": 3}


def _chart3(vals4: list, axis: int) -> list:
    return [v for k, v in enumerate(vals4) if k != axis]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_export(args) -> int:
    doc = load_doc(args.input)
    pcen = doc.get("kind") == "pcen"
    if args.target == "json":
        # written from what the readers return, so a malformed document fails
        # as it does on every other path
        dump_doc(pcen_to_doc(doc_to_pcen(doc)) if pcen else net_to_doc(doc_to_net(doc)),
                 args.output)
        return 0
    axis = _CHART_AXES[args.chart]
    lines = ["# twistnets export"]
    if pcen:
        _export_pcen(doc, axis, lines)
    else:
        net = doc_to_net(doc)
        if net.kind in ("cp1", "hp1"):
            _export_lattice(net, axis, lines)
        elif net.kind == "q4":
            _export_spheres(net, axis, lines)
        else:
            raise GeometryError(f"cannot export nets of kind {net.kind!r}")
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _export_lattice(net: LatticeNet, axis: int, lines: list):
    """Vertex lattice with quad faces; infinite points are skipped."""
    # the OBJ number of each vertex written, by flat index
    index_of = {}
    for flat, idx, v in zip(np.flatnonzero(net.present).tolist(), net.present_indices(),
                            _entries_out(net).values()):
        if v is None:
            _warn(f"skipping point at infinity at index {idx}")
            continue
        index_of[flat] = len(index_of) + 1
        coords = [v[0], v[1], 0.0] if net.kind == "cp1" else _chart3(v, axis)
        lines.append("v " + " ".join(_fmt(c) for c in coords))
    for quad in box_cells(net.shape, 2)[2].tolist():
        if all(k in index_of for k in quad):
            lines.append("f " + " ".join(str(index_of[k]) for k in quad))
    if net.dim == 1 and len(index_of) >= 2:
        lines.append("l " + " ".join(str(k) for k in index_of.values()))


def _sphere_center_radius(s: SphereEndo, axis: int):
    """Chart center S(infinity) and radius 1/|C| of a sphere (SphereEndo).

    The sphere spans the 3-plane normal to conj(C), so it reaches 2|C'|/|C|^2
    along the dropped axis, C' being C without that component.  None when S
    fixes infinity (a flat sphere) or that extent is over 1e-8 of the
    sphere's coordinates (it is not round in the chart).
    """
    m = s.matrix
    c = Quaternion.from_complex_pair(m[2, 0], m[3, 0])
    center = _hpoint_out(HPoint(Quaternion.from_complex_pair(m[0, 0], m[1, 0]), c))
    if center is None:
        return None
    radius = 1.0 / c.norm()
    extent = 2.0 * math.hypot(*_chart3([c.w, c.x, c.y, c.z], axis)) * radius * radius
    if extent > 1e-8 * max(1.0, max(map(abs, center)) + radius):
        return None
    return _chart3(center, axis), radius


def _export_spheres(net: LatticeNet, axis: int, lines: list):
    offset = 0
    for idx in net.present_indices():
        s = sphere_from_line(net[idx])
        if isinstance(s, HPoint):
            offset += _emit_point(lines, s, axis, idx)
        elif (fit := _sphere_center_radius(s, axis)) is None:
            _warn(f"skipping sphere at index {idx}: flat or not chart-round")
        else:
            offset = _emit_uv_sphere(lines, *fit, offset)


def _emit_point(lines: list, p: HPoint, axis: int, idx) -> int:
    """p as a chart vertex, or a warning at infinity; the count of vertices
    written."""
    affine = _hpoint_out(p)
    if affine is None:
        _warn(f"skipping point at infinity at index {idx}")
        return 0
    lines.append("v " + " ".join(_fmt(c) for c in _chart3(affine, axis)))
    return 1


def _emit_uv_sphere(lines: list, center, radius: float, offset: int) -> int:
    rings, segments = 12, 16
    for i in range(rings + 1):
        theta = np.pi * i / rings
        for k in range(segments):
            phi = 2.0 * np.pi * k / segments
            v = (center[0] + radius * np.sin(theta) * np.cos(phi),
                 center[1] + radius * np.sin(theta) * np.sin(phi),
                 center[2] + radius * np.cos(theta))
            lines.append("v " + " ".join(_fmt(c) for c in v))
    for i in range(rings):
        # the first vertex of ring i and of ring i + 1, counted from 1
        a, b = offset + i * segments + 1, offset + (i + 1) * segments + 1
        for k in range(segments):
            k1 = (k + 1) % segments
            lines.append(f"f {a + k} {a + k1} {b + k1} {b + k}")
    return offset + (rings + 1) * segments


def _export_pcen(doc: dict, axis: int, lines: list):
    pcen = doc_to_pcen(doc)
    for idx, element in pcen.elements.items():
        p = null_line_real_point(element)
        if p is None:
            _warn(f"skipping half-contact element at index {idx}")
        else:
            _emit_point(lines, p, axis, idx)


# ---------------------------------------------------------------------------
# hexahedron / holonomy / lie-report


def cmd_hexahedron(args) -> int:
    data = load_doc(args.input)
    pts = data.get("points")
    if not isinstance(pts, list) or len(pts) != 7:
        raise DocumentError("hexahedron input needs a 'points' list of 7 bivectors")
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
    net = doc_to_net(load_doc(args.input))
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
    report = lie_signature_report()
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
    return 0 if report["basis"] == (2, 4) and report["omega_slice"] == (1, 4) else 3


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="twistnets",
        description="discrete nets and sphere geometry in twistor space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="evolve a curve document into a net")
    p.add_argument("input", help="curve document (JSON), '-' for stdin")
    p.add_argument("--mode", choices=("circular", "complex"), required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="cross ratio, e.g. -1 or 0+1i")
    p.add_argument("--steps", type=int, default=4,
                   help="number of evolution rows (default 4)")
    p.add_argument("--lift", action="store_true",
                   help="lift the evolved complex net into the sphere quadric")
    p.add_argument("--sphere", help="12 comma-separated reals for the sphere")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random transverse seeds (default 0)")
    p.add_argument("--output", "-o", help="output path (default stdout)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("check", help="residual report for a net document")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="residual tolerance (default 1e-8)")
    p.add_argument("--report", choices=("planarity", "conic", "cr", "pcen"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="export a net document to OBJ or JSON")
    p.add_argument("input")
    p.add_argument("--target", choices=("obj", "json"), default="obj")
    p.add_argument("--chart", choices=tuple(_CHART_AXES), default="w",
                   help="affine coordinate dropped for 3d display")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("hexahedron", help="complete a combinatorial cube from 7 points")
    p.add_argument("input", help="JSON file with a 'points' list of 7 bivectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hexahedron)

    p = sub.add_parser("holonomy", help="holonomy matrix and eigenlines of a closed curve")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("lie-report", help="signatures of the real structure reduction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lie_report)

    return parser


# argparse reads a value that starts with '-' and is no plain negative decimal
# as an option, so main joins these options, and every abbreviation of them
# (--lam, --sph), to their values: --lambda=-0.5+1i.  A bare '--' is no
# abbreviation; an ambiguous one such as --l stays argparse's usage error,
# joined or not.
_SIGNED_OPTIONS = ("--lambda", "--sphere")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in reversed(range(len(argv) - 1)):
        if len(argv[k]) > 2 and any(opt.startswith(argv[k]) for opt in _SIGNED_OPTIONS):
            argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2, the code of degenerate geometry, on a usage error
        return 0 if exc.code == 0 else 1
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
