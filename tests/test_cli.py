import contextlib
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistnets.quat import Quaternion
from twistnets.proj4 import QUADRIC_MATRIX, normalize_proj, nullspace, quadric_pair, quadric_roots
from twistnets.twistor import HPoint, SphereEndo, is_j_real, sphere_translate, twistor_fiber
from twistnets.cli import (
    _cvec_out,
    build_parser,
    doc_to_net,
    doc_to_pcen,
    dump_doc,
    load_doc,
    main,
    net_to_doc,
    parse_complex,
    pcen_to_doc,
)
from twistnets.contact import PCEN, contact_element, pcen_from_circular, pcen_from_complex_cr
from twistnets.xratio import ExtC
from twistnets.nets import (
    LatticeNet,
    evolve_net_circular,
    evolve_net_complex,
    lift_to_QS2,
    project_from_QS2,
    quadric_defects,
)
from twistnets.proj4 import (
    RANK_CUT,
    DocumentError,
    GeometryError,
    proj_distance,
    span_ratios,
    wedge,
)

from complex_fibers import complex_face_ratios, random_hp1_net


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _hp1_curve_doc(n=5):
    pts = [[0.0, float(np.cos(t)), float(np.sin(t)), 0.0]
           for t in np.linspace(0.2, 2.0, n)]
    return {"schema": 1, "dim": 1, "box": [n], "kind": "hp1",
            "entries": {str(k): p for k, p in enumerate(pts)},
            "metadata": {}}


def _cp1_curve_doc(n=6, seed=3):
    rng = np.random.default_rng(seed)
    zs = rng.standard_normal((n, 2))
    return {"schema": 1, "dim": 1, "box": [n], "kind": "cp1",
            "entries": {str(k): [float(a), float(b)]
                        for k, (a, b) in enumerate(zs)},
            "metadata": {}}


def _unit_sphere_bivector():
    """The unit sphere of Im H as a twistor line, via four of its points."""
    rows = []
    for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)):
        p = HPoint.from_quaternion(Quaternion(0.0, x, y, z))
        rows.append(twistor_fiber(p) @ QUADRIC_MATRIX)
    ns = nullspace(np.array(rows), 1e-9)
    roots = [r for r in quadric_roots(ns[:, 0], ns[:, 1])
             if abs(quadric_pair(r, r)) < 1e-8 and not is_j_real(r, 1e-6)]
    return normalize_proj(roots[0])


def test_parse_complex():
    assert parse_complex("-1") == -1
    assert parse_complex("0+1i") == 1j
    assert parse_complex("2.5-0.5j") == 2.5 - 0.5j
    with pytest.raises(DocumentError, match="cannot parse 'nope' as a finite complex number"):
        parse_complex("nope")


def test_evolve_circular_then_check(tmp_path, capsys):
    src = _write(tmp_path, "curve.json", _hp1_curve_doc())
    out = str(tmp_path / "net.json")
    rc = main(["evolve", src, "--mode", "circular", "--lambda", "-1",
               "--steps", "3", "-o", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "hp1" and doc["box"] == [5, 4]
    rc = main(["check", out])
    msg = capsys.readouterr().out
    assert rc == 0 and "max residual" in msg


def test_check_detects_broken_net(tmp_path, capsys):
    src = _write(tmp_path, "curve.json", _hp1_curve_doc())
    out = str(tmp_path / "net.json")
    assert main(["evolve", src, "--mode", "circular", "--lambda", "-1",
                 "-o", out]) == 0
    doc = json.loads(open(out).read())
    doc["entries"]["1,1"][0] += 0.05
    bad = _write(tmp_path, "bad.json", doc)
    rc = main(["check", bad, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 3 and not rep["ok"]


def test_check_rejects_q4_values_off_the_quadric(tmp_path, capsys):
    # e0^e1 + e2^e3 is no line: <a, a> = 1 for the unit-scaled value, although
    # four equal values make a planar face
    value = [1.0, 0.0] + [0.0] * 8 + [1.0, 0.0]
    doc = {"schema": 1, "dim": 2, "box": [2, 2], "kind": "q4",
           "entries": {f"{m},{n}": value for m in range(2) for n in range(2)}}
    src = _write(tmp_path, "off.json", doc)
    for report in ("planarity", "conic"):
        rc = main(["check", src, "--report", report, "--json"])
        rep = json.loads(capsys.readouterr().out)
        assert rc == 3 and not rep["ok"]
        assert rep["max_residual"] >= 1.0 - 1e-12


def test_export_rejects_q4_values_off_the_quadric(tmp_path, capsys):
    # e0^e1 + e2^e3 is j-real, but no line, so it is no point either
    value = [1.0, 0.0] + [0.0] * 8 + [1.0, 0.0]
    doc = {"schema": 1, "dim": 1, "box": [1], "kind": "q4", "entries": {"0": value}}
    assert main(["export", _write(tmp_path, "off.json", doc)]) == 2
    assert "needs a decomposable bivector" in capsys.readouterr().err


def _lifted_doc(shape=(3, 3), seed=6):
    """A q4 document: a complex cross-ratio net lifted to planar faces."""
    rng = np.random.default_rng(seed)
    curve = [complex(*rng.standard_normal(2)) for _ in range(shape[0])]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(shape[1] - 1)]
    lam = 0.4 + 0.9j
    e = np.eye(4, dtype=complex)
    return net_to_doc(lift_to_QS2(normalize_proj(wedge(e[0], e[2])),
                                  evolve_net_complex(curve, seeds, lam), lam))


def test_planarity_check_fails_faces_spanning_fewer_than_three_dimensions(tmp_path, capsys):
    # four copies of one quadric point have planarity 0 but lie in no unique
    # plane; the face fails with residual 1, as a reducible conic face does
    value = _lifted_doc()["entries"]["0,0"]
    doc = {"schema": 1, "dim": 2, "box": [2, 2], "kind": "q4",
           "entries": {f"{m},{n}": value for m in range(2) for n in range(2)}}
    rc = main(["check", _write(tmp_path, "point.json", doc), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 3 and not rep["ok"] and rep["max_residual"] == 1.0
    # four distinct points of a lifted face span a plane and pass
    doc = _lifted_doc((2, 2))
    rc = main(["check", _write(tmp_path, "face.json", doc), "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["ok"] and rep["max_residual"] < 1e-10


def test_check_json_names_the_worst_face(tmp_path, capsys):
    # (4, 3) is a vertex of the face 3,2/01 only
    src = _write(tmp_path, "curve.json", _hp1_curve_doc())
    out = str(tmp_path / "net.json")
    assert main(["evolve", src, "--mode", "circular", "--lambda", "-1",
                 "--steps", "3", "-o", out]) == 0
    doc = json.loads(open(out).read())
    assert main(["check", out, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["worst_face"] in {row["face"] for row in rep["faces"]}
    doc["entries"]["4,3"][1] += 0.05
    assert main(["check", _write(tmp_path, "bad.json", doc), "--json"]) == 3
    rep = json.loads(capsys.readouterr().out)
    bad = [row["face"] for row in rep["faces"] if row["residual"] > 1e-8]
    assert not rep["ok"] and bad == ["3,2/01"] and rep["worst_face"] == "3,2/01"
    assert rep["max_residual"] == max(row["residual"] for row in rep["faces"])


def _planarity_json_reference(net, tol=1e-8) -> str:
    """check --json's planarity output as computed before the face ratios
    were cached: the faces gathered by face_index, one span_ratios call."""
    faces = list(net.faces())
    idx = [net.face_index(base, axes) for base, axes in faces]
    vecs = net.ambient()[tuple(np.array(idx).transpose(1, 0, 2))]
    flat, resid = span_ratios(vecs).T
    if net.kind == "q4":
        resid = np.maximum(resid, quadric_defects(vecs))
    resid = np.where(flat <= RANK_CUT, np.maximum(resid, 1.0), resid)
    rows = [{"face": f"{','.join(map(str, base))}/{a}{b}", "residual": r}
            for (base, (a, b)), r in zip(faces, resid.tolist())]
    worst = max(resid.tolist())
    out = {"report": "planarity", "tol": tol, "max_residual": worst, "ok": worst <= tol,
           "worst_face": rows[int(np.argmax(resid))]["face"], "faces": rows}
    return json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("kind", ["hp1", "cp3", "q4"])
def test_planarity_report_of_a_3_dim_net_is_unchanged(tmp_path, capsys, kind):
    # rows in net.faces() order, the three axis pairs interleaved, each
    # residual as one decomposition per face gave it
    rng = np.random.default_rng(19)
    net = LatticeNet((3, 2, 4), kind)
    for idx in net.indices():
        x, y = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        net[idx] = HPoint.from_quaternion(Quaternion(*x.real)) if kind == "hp1" \
            else x if kind == "cp3" else wedge(x, y)
    doc = net_to_doc(net)
    main(["check", "--json", _write(tmp_path, "net.json", doc)])
    assert capsys.readouterr().out == _planarity_json_reference(doc_to_net(doc))
    # a missing vertex: the first face in that order that misses one names it
    del doc["entries"]["1,1,2"]
    with pytest.raises(GeometryError) as exc:
        _planarity_json_reference(doc_to_net(doc))
    assert main(["check", "--json", _write(tmp_path, "hole.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_hp1_planarity_rows_are_the_complex_fibers_ratios(shape, on_circle, seed):
    # the report decomposes an hp1 net's faces as real 6-vectors; the rows
    # and the exit code are those of the complex fibers, phase-normalized.
    # Bound: over 1,500 random nets a face's ratio moved by at most 5.0e-16
    doc = net_to_doc(random_hp1_net(np.random.default_rng(seed), tuple(shape), 0.0, on_circle))
    flat, want = complex_face_ratios(doc_to_net(doc)).T
    want = np.where(flat <= RANK_CUT, np.maximum(want, 1.0), want)
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out):
        code = main(["check", "-", "--json"])
    rep = json.loads(out.getvalue())
    assert code == (0 if want.max() <= 1e-8 else 3) and rep["ok"] == (code == 0)
    assert len(rep["faces"]) == len(want)
    assert max(abs(row["residual"] - w) for row, w in zip(rep["faces"], want.tolist())) < 1.5e-15
    assert code == 0 or not on_circle


@pytest.mark.parametrize("box", [[3], [2, 2]])
def test_planarity_report_refuses_a_cp1_document_of_any_dimension(tmp_path, capsys, box):
    # a cp1 curve has no faces, and its report must not pass for that
    rng = np.random.default_rng(20)
    doc = {"schema": 1, "dim": len(box), "box": box, "kind": "cp1", "metadata": {},
           "entries": {",".join(map(str, idx)): rng.standard_normal(2).tolist()
                       for idx in np.ndindex(*box)}}
    assert main(["check", _write(tmp_path, "cp1.json", doc), "--report", "planarity"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: cp1 nets have no ambient planarity notion\n"


@pytest.mark.parametrize("box", [[2], [2, 2]])
def test_planarity_report_refuses_a_zero_vector_with_or_without_faces(tmp_path, capsys, box):
    # the report reads the ambient vectors of every value; before, a curve
    # without faces passed with a zero vector
    entries = {",".join(map(str, idx)): [1.0, 0.0] * 4 for idx in np.ndindex(*box)}
    entries[",".join(["0"] * len(box))] = [0.0] * 8
    doc = {"schema": 1, "dim": len(box), "box": box, "kind": "cp3", "metadata": {},
           "entries": entries}
    assert main(["check", _write(tmp_path, "cp3.json", doc), "--report", "planarity"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: cannot normalize (near-)zero homogeneous vector\n"


@pytest.mark.parametrize("metadata", ["x", [], 1.5, None])
def test_metadata_that_is_no_object_exits_1(tmp_path, capsys, metadata):
    doc = _hp1_curve_doc()
    doc["metadata"] = metadata
    src = _write(tmp_path, "meta.json", doc)
    for argv in (["check", src], ["export", src],
                 ["evolve", src, "--mode", "circular", "--lambda", "-1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: document metadata must be an object")
        assert "Traceback" not in err


def test_export_of_huge_coordinates_decides_infinity_without_overflow(tmp_path, capsys):
    # |a|^2 of a 1e200 coordinate overflowed in the infinity test (a
    # RuntimeWarning, an error here); the point is at infinity by the cut
    doc = {"schema": 1, "dim": 2, "box": [2, 2], "kind": "hp1", "metadata": {},
           "entries": {"0,0": [0.0, 0.0, 0.0, 0.0], "1,0": [1.0, 0.0, 0.0, 0.0],
                       "1,1": [2.0, 0.0, 0.0, 0.0], "0,1": [1e200, 0.0, 0.0, 0.0]}}
    out = tmp_path / "huge.obj"
    assert main(["export", _write(tmp_path, "huge.json", doc), "-o", str(out)]) == 0
    assert capsys.readouterr().err == "warning: skipping point at infinity at index (0, 1)\n"
    assert out.read_text().count("\nv ") == 3


def test_net_documents_reexport_byte_for_byte(tmp_path):
    # hp1 and cp1 documents with a point at infinity and a missing vertex,
    # and a q4 document with a missing vertex
    hp1 = str(tmp_path / "hp1.json")
    assert main(["evolve", _write(tmp_path, "c.json", _hp1_curve_doc()), "--mode", "circular",
                 "--lambda", "-1.5", "-o", hp1]) == 0
    cp1 = str(tmp_path / "cp1.json")
    assert main(["evolve", _write(tmp_path, "z.json", _cp1_curve_doc()), "--mode", "complex",
                 "--lambda", "0.4+0.9i", "-o", cp1]) == 0
    docs = [json.loads(open(hp1).read()), json.loads(open(cp1).read()), _lifted_doc()]
    for doc in docs:
        del doc["entries"]["1,1"]
    for doc in docs[:2]:
        doc["entries"]["2,1"] = None
    for doc in docs:
        first = str(tmp_path / f"{doc['kind']}-first.json")
        dump_doc(doc, first)
        again = str(tmp_path / f"{doc['kind']}-again.json")
        dump_doc(net_to_doc(doc_to_net(load_doc(first))), again)
        assert open(first).read() == open(again).read()


def test_cp3_documents_load_check_and_reexport(tmp_path, capsys):
    # four C^4 points in one plane, stored as 8 reals each
    rng = np.random.default_rng(16)
    plane = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    net = LatticeNet((2, 2), "cp3")
    for idx in net.indices():
        net[idx] = rng.standard_normal(3) @ plane
    first, again = str(tmp_path / "first.json"), str(tmp_path / "again.json")
    dump_doc(net_to_doc(net), first)
    dump_doc(net_to_doc(doc_to_net(load_doc(first))), again)
    assert open(first).read() == open(again).read()
    assert main(["check", first, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"] == "planarity" and rep["max_residual"] < 1e-12
    doc = load_doc(first)
    doc["entries"]["1,1"] = _cvec_out(rng.standard_normal(4) + 0j)
    assert main(["check", _write(tmp_path, "off.json", doc), "--report", "planarity"]) == 3
    assert main(["export", first]) == 2
    assert "cannot export nets of kind 'cp3'" in capsys.readouterr().err
    # an entry of Pluecker length is malformed here
    doc["entries"]["1,1"] = [0.5] * 12
    assert main(["check", _write(tmp_path, "long.json", doc), "--report", "planarity"]) == 1
    assert "cp3 entry '1,1' needs a list of 8 reals" in capsys.readouterr().err


def test_conic_check_decides_rank_at_its_tol(tmp_path, capsys):
    # a lifted complex net with 1e-5 noise on each value: s4 / s1 ~ 1e-4 on
    # every face, so at --tol 1e-3 each face spans a plane and is a conic
    rng = np.random.default_rng(5)
    curve = [complex(*rng.standard_normal(2)) for _ in range(8)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(7)]
    lam = 0.4 + 0.9j
    e = np.eye(4, dtype=complex)
    net = lift_to_QS2(normalize_proj(wedge(e[0], e[2])),
                      evolve_net_complex(curve, seeds, lam), lam)
    for idx in net.indices():
        net[idx] = net[idx] + 1e-5 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    src = _write(tmp_path, "noisy.json", net_to_doc(net))
    planarity = main(["check", src, "--json", "--tol", "1e-3"])
    worst = json.loads(capsys.readouterr().out)["max_residual"]
    assert planarity == 0 and 1e-6 < worst < 1e-3
    rc = main(["check", src, "--report", "conic", "--tol", "1e-3", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["ok"] and rep["max_residual"] < 1e-3


def test_evolve_complex_cr_report(tmp_path, capsys):
    src = _write(tmp_path, "curve.json", _cp1_curve_doc())
    out = str(tmp_path / "net.json")
    assert main(["evolve", src, "--mode", "complex", "--lambda", "0.4+0.9i",
                 "--steps", "3", "-o", out]) == 0
    rc = main(["check", out, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["report"] == "cr" and rep["max_residual"] < 1e-8


def test_evolve_lift_conic_and_byte_stable_reexport(tmp_path, capsys):
    src = _write(tmp_path, "curve.json", _cp1_curve_doc())
    out = str(tmp_path / "lifted.json")
    assert main(["evolve", src, "--mode", "complex", "--lambda", "0.7-0.4i",
                 "--steps", "3", "--lift", "-o", out]) == 0
    rc = main(["check", out, "--report", "conic", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["ok"]
    # loading and re-exporting a q4 document reproduces it byte for byte
    out2 = str(tmp_path / "again.json")
    assert main(["export", out, "--target", "json", "-o", out2]) == 0
    assert open(out).read() == open(out2).read()


def test_evolve_lift_on_a_given_sphere(tmp_path, capsys):
    sphere = _unit_sphere_bivector()
    src = _write(tmp_path, "curve.json", _cp1_curve_doc())
    out = str(tmp_path / "lifted.json")
    argv = ["evolve", src, "--mode", "complex", "--lambda", "0.7-0.4i", "--steps", "3", "--lift",
            "-o", out, "--sphere"]
    assert main(argv + [",".join(repr(x) for x in _cvec_out(sphere))]) == 0
    net = doc_to_net(load_doc(out))
    assert proj_distance(net.metadata["sphere"], sphere) < 1e-12
    # every value is a line through the sphere, and every face a conic
    assert project_from_QS2(sphere, net).is_complete()
    assert main(["check", out, "--report", "conic", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    # twelve finite reals, or a usage error
    for text in ("1,2,3", "1,x" + ",0" * 10, ",".join(["nan"] + ["0"] * 11), ""):
        assert main(argv + [text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --sphere") and err.count("error:") == 1


@pytest.mark.parametrize("lam", ["0.5+1i", "-0.7"])
def test_evolve_lifts_a_curve_point_beyond_the_square_root_of_the_largest_float(
        tmp_path, capsys, lam):
    for z in (2e154, 1e300):
        src = _write(tmp_path, "far.json", {"schema": 1, "dim": 1, "box": [3], "kind": "cp1",
                                            "entries": {"0": [z, 0], "1": [1, 0], "2": [0, 1]},
                                            "metadata": {}})
        out = str(tmp_path / "lifted.json")
        assert main(["evolve", src, "--mode", "complex", "--lambda=" + lam, "--steps", "3",
                     "--lift", "-o", out]) == 0
        assert main(["check", out, "--report", "conic", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]


def test_net_doc_roundtrip(tmp_path):
    src = _write(tmp_path, "curve.json", _hp1_curve_doc())
    out = str(tmp_path / "net.json")
    assert main(["evolve", src, "--mode", "circular", "--lambda", "-1.5",
                 "-o", out]) == 0
    doc = json.loads(open(out).read())
    again = net_to_doc(doc_to_net(doc))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_export_obj_lattice(tmp_path):
    src = _write(tmp_path, "curve.json", _hp1_curve_doc(3))
    net = str(tmp_path / "net.json")
    assert main(["evolve", src, "--mode", "circular", "--lambda", "-1",
                 "--steps", "2", "-o", net]) == 0
    obj = str(tmp_path / "net.obj")
    assert main(["export", net, "-o", obj]) == 0
    text = open(obj).read().splitlines()
    verts = [l for l in text if l.startswith("v ")]
    faces = [l for l in text if l.startswith("f ")]
    assert len(verts) == 9 and len(faces) == 4
    assert all(len(l.split()) == 4 for l in verts)


def test_export_obj_skips_infinity(tmp_path, capsys):
    doc = _hp1_curve_doc(3)
    doc["entries"]["1"] = None
    src = _write(tmp_path, "curve.json", doc)
    assert main(["export", src, "-o", str(tmp_path / "c.obj")]) == 0
    assert "infinity" in capsys.readouterr().err


def _grid_net(shape):
    """A circular hp1 net of any dimension up to 4: a box grid in H, axis a
    along the quaternion unit a, so that every face is a rectangle."""
    net = LatticeNet(shape, "hp1")
    for idx in net.indices():
        q = [0.3, -0.2, 0.5, 0.1]
        q[:len(idx)] = [c + 0.7 * i + 0.1 * i * i for c, i in zip(q, idx)]
        net[idx] = HPoint.from_quaternion(Quaternion(*q))
    return net


def test_export_obj_writes_the_quads_of_a_3_dim_net(tmp_path, capsys):
    # every 2-cell of box_cells whose four corners were written is a quad:
    # the 8 + 9 + 12 faces of a 2 x 3 x 4 box, less the three at a vertex at
    # infinity.  Before, a net of any dimension but 2 wrote vertices only
    doc = net_to_doc(_grid_net((2, 3, 4)))
    obj = tmp_path / "net.obj"
    for infinite, faces in ((None, 29), ("0,0,0", 26)):
        if infinite is not None:
            doc["entries"][infinite] = None
        assert main(["export", _write(tmp_path, "net.json", doc), "-o", str(obj)]) == 0
        text = obj.read_text().splitlines()
        assert sum(l.startswith("v ") for l in text) == 24 - (infinite is not None)
        assert sum(l.startswith("f ") for l in text) == faces
        assert not any(l.startswith("l ") for l in text)
    assert capsys.readouterr().err == "warning: skipping point at infinity at index (0, 0, 0)\n"


def test_export_obj_sphere_matches_circumsphere(tmp_path):
    S = _unit_sphere_bivector()
    doc = {"schema": 1, "dim": 1, "box": [1], "kind": "q4",
           "entries": {"0": _cvec_out(S)}, "metadata": {}}
    src = _write(tmp_path, "sphere.json", doc)
    obj = str(tmp_path / "sphere.obj")
    assert main(["export", src, "-o", obj]) == 0
    verts = np.array([[float(t) for t in l.split()[1:]]
                      for l in open(obj).read().splitlines()
                      if l.startswith("v ")])
    faces = [l for l in open(obj).read().splitlines() if l.startswith("f ")]
    assert len(verts) == 13 * 16 and len(faces) == 12 * 16
    radii = np.linalg.norm(verts, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-6


def _round_sphere(center: Quaternion, radius: float, normal):
    """The q4 value of the sphere with this center and radius in the 3-plane
    normal to `normal`, and its quaternionic matrix entries A and C.

    S = (A, B; C, D) with C = conj(normal) / radius and A = center C; S^2 = -1
    gives B and D.
    """
    C = Quaternion(*normal).conjugate() * (1.0 / radius)
    A = center * C
    blocks = {(0, 0): A, (0, 1): (Quaternion.from_real(-1.0) - A * A) * C.inverse(),
              (1, 0): C, (1, 1): -(C * center)}
    m = np.zeros((4, 4), dtype=complex)
    for (row, col), q in blocks.items():
        z1, z2 = q.complex_pair()
        m[2 * row:2 * row + 2, 2 * col:2 * col + 2] = [[z1, -np.conj(z2)], [z2, np.conj(z1)]]
    sphere = SphereEndo(m)
    assert sphere.squares_to_minus_identity(1e-12)
    return sphere.eigenline(), A, C


def _export_q4_value(tmp_path, value, chart):
    """Exit code, vertices and face count of a one-value q4 document's OBJ."""
    doc = {"schema": 1, "dim": 1, "box": [1], "kind": "q4",
           "entries": {"0": _cvec_out(value)}, "metadata": {}}
    obj = str(tmp_path / "sphere.obj")
    rc = main(["export", _write(tmp_path, "sphere.json", doc), "--chart", chart, "-o", obj])
    lines = open(obj).read().splitlines()
    verts = np.array([[float(t) for t in l.split()[1:]] for l in lines if l.startswith("v ")])
    return rc, verts, sum(l.startswith("f ") for l in lines)


def test_export_writes_a_fiber_at_any_phase_as_one_vertex(tmp_path, capsys):
    # fibers over points near the chart origin have a small leading Pluecker
    # coordinate; written at a complex phase with 12 decimals they are fibers
    # to about 1e-12, each a point
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = Quaternion(*(rng.standard_normal(4) * 1.5e-3))
        phase = np.exp(2j * np.pi * rng.uniform())
        value = np.round(twistor_fiber(HPoint.from_quaternion(q)) * phase, 12)
        rc, verts, faces = _export_q4_value(tmp_path, value, "w")
        assert rc == 0 and faces == 0 and verts.shape == (1, 3)
        assert np.abs(verts[0] - [q.x, q.y, q.z]).max() < 1e-9
    assert "error" not in capsys.readouterr().err


def _uv_sphere(center, radius):
    """The export's 13 x 16 vertex grid on a sphere."""
    theta, phi = np.meshgrid(np.pi * np.arange(13) / 12, 2 * np.pi * np.arange(16) / 16,
                             indexing="ij")
    unit = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                    axis=-1)
    return np.asarray(center) + radius * unit.reshape(-1, 3)


@pytest.mark.parametrize("chart", "wxyz")
def test_export_obj_sphere_has_its_center_and_radius(tmp_path, chart):
    # off the origin, A and C do not commute outside the w chart, so the
    # center A C^-1 differs from C^-1 A
    axis = "wxyz".index(chart)
    center, radius = Quaternion(0.7, -1.3, 0.4, 2.1), 0.8
    line, A, C = _round_sphere(center, radius, np.eye(4)[axis])
    rc, verts, faces = _export_q4_value(tmp_path, line, chart)
    assert rc == 0 and faces == 12 * 16

    def miss(q):
        return np.max(np.abs(verts - _uv_sphere(np.delete([q.w, q.x, q.y, q.z], axis), radius)))

    assert miss(center) < 1e-12
    # a w-aligned sphere has a real C, and there the two orders agree
    assert miss(C.inverse() * A) > 1.0 if chart != "w" else miss(C.inverse() * A) < 1e-12


@pytest.mark.parametrize("chart", "wxyz")
def test_export_obj_skips_tilted_and_flat_spheres(tmp_path, capsys, chart):
    axis = "wxyz".index(chart)
    normal = np.eye(4)[axis] * np.cos(1e-3) + np.eye(4)[(axis + 1) % 4] * np.sin(1e-3)
    tilted, _, _ = _round_sphere(Quaternion(0.7, -1.3, 0.4, 2.1), 0.8, normal)
    # sphere_translate's matrix is upper triangular: C = 0, so S fixes infinity
    flat = sphere_translate(Quaternion(0.7, -1.3, 0.4, 2.1), Quaternion(0, 0.6, 0, 0.8),
                            Quaternion(0, 0, 1, 0)).eigenline()
    for value in (tilted, flat):
        rc, verts, faces = _export_q4_value(tmp_path, value, chart)
        assert rc == 0 and len(verts) == 0 and faces == 0
        assert "skipping sphere at index (0,): flat or not chart-round" in capsys.readouterr().err


def test_exit_code_usage_errors(tmp_path):
    # missing file and malformed JSON are usage/IO problems
    assert main(["check", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    # empty curve document
    doc = {"schema": 1, "dim": 1, "box": [3], "kind": "hp1",
           "entries": {}, "metadata": {}}
    src = _write(tmp_path, "empty.json", doc)
    assert main(["evolve", src, "--mode", "circular", "--lambda", "-1"]) == 1


@pytest.mark.parametrize("argv", [
    ["check", "net.json", "--no-such-flag"],
    ["evolve", "curve.json", "--mode", "circular"],
    ["evolve", "curve.json", "--mode", "circular", "--lambda", "-1", "--steps", "-1"],
    ["evolve", "curve.json", "--mode", "complex", "--lambda", "-1", "--steps", "-1"],
])
def test_command_line_usage_errors_exit_1(tmp_path, capsys, argv):
    # argparse's own exit code is 2, the code of degenerate geometry; the
    # curve is valid, so only the arguments are at fault
    curve = {"circular": _hp1_curve_doc(), "complex": _cp1_curve_doc()}
    doc = curve["complex" if "complex" in argv else "circular"]
    argv = [_write(tmp_path, a, doc) if a == "curve.json" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    *(["evolve", "curve.json", "--mode", "circular", f"--lambda={lam}"]
      for lam in ("nan", "inf", "1e400", "-1e400", "nope")),
    *(["evolve", "ccurve.json", "--mode", "complex", f"--lambda={lam}"]
      for lam in ("nan", "1e400j", "1-nanj", "0+1e400i", "nope")),
    *(["holonomy", "ccurve.json", f"--lambda={lam}"] for lam in ("nan", "1e400", "1e400j", "x")),
    *(["check", "net.json", f"--tol={tol}"] for tol in ("nan", "inf", "-inf", "1e400", "tight")),
])
def test_non_finite_lambda_or_tol_exits_1(tmp_path, capsys, argv):
    # a --lambda or --tol that is no finite number is a usage error: before,
    # NaN went into the evolution (RuntimeWarnings, an error here), an
    # infinite tolerance passed every report and text exited 2
    docs = {"curve.json": _hp1_curve_doc(), "ccurve.json": _cp1_curve_doc(4)}
    net = tmp_path / "net.json"
    assert main(["evolve", _write(tmp_path, "c.json", _hp1_curve_doc()), "--mode", "circular",
                 "--lambda", "-1", "-o", str(net)]) == 0
    argv = [_write(tmp_path, a, docs[a]) if a in docs else str(net) if a == "net.json" else a
            for a in argv]
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.count("error:") == 1 and "Traceback" not in out.err and out.out == ""


@pytest.mark.parametrize("argv, option", [
    (["evolve", "curve.json", "--mode", "circular", "--lambda", "-1"], ["--tol", "1e-3"]),
    (["export", "net.json"], ["--seed", "1"]),
    (["lie-report"], ["--tol=-5"]),
    (["check", "net.json"], ["--tol=-1"]),
    (["evolve", "curve.json", "--mode", "circular", "--lambda", "-1"], ["--seed=-1"]),
    (["evolve", "curve.json", "--mode", "circular", "--lambda", "-1"], ["--lift"]),
    (["evolve", "curve.json", "--mode", "circular", "--lambda", "-1"],
     ["--lift", "--sphere", "1,2,3"]),
    (["evolve", "ccurve.json", "--mode", "complex", "--lambda", "0.5"], ["--sphere", "garbage"]),
    (["evolve", "ccurve.json", "--mode", "complex", "--lambda", "0.5"],
     ["--sphere", ",".join(["1"] + ["0"] * 11)]),
])
def test_options_only_on_the_commands_that_read_them(tmp_path, capsys, argv, option):
    # --tol belongs to check and --seed to evolve, neither negative, --lift
    # to a complex evolution and --sphere to --lift.  Before, every command
    # took --tol and --seed, a negative --tol failed every face (exit 3), a
    # negative --seed escaped main from numpy, and --lift and --sphere exited
    # 0 where nothing read them
    net = tmp_path / "net.json"
    assert main(["evolve", _write(tmp_path, "curve.json", _hp1_curve_doc()), "--mode",
                 "circular", "--lambda", "-1", "-o", str(net)]) == 0
    _write(tmp_path, "ccurve.json", _cp1_curve_doc())
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + option) == 1
    out = capsys.readouterr()
    assert out.err.count("error:") == 1 and "Traceback" not in out.err and out.out == ""


def _box_doc(kind, box):
    return {"schema": 1, "dim": len(box), "box": box, "kind": kind, "entries": {},
            "metadata": {}}


@pytest.mark.parametrize("argv, doc", [
    (["check", "doc.json"], _box_doc("hp1", [10 ** 30])),
    (["check", "doc.json"], _box_doc("hp1", [10 ** 6] * 3)),
    (["check", "doc.json"], _box_doc("q4", [0, 10 ** 30])),
    (["check", "doc.json"], _box_doc("pcen", [10 ** 30])),
    (["export", "doc.json"], _box_doc("cp1", [10 ** 3, 10 ** 3 + 1])),
    (["evolve", "doc.json", "--mode", "complex", "--lambda", "0.5", "--steps", str(10 ** 15)],
     _cp1_curve_doc()),
    (["evolve", "doc.json", "--mode", "circular", "--lambda", "-1", "--steps", str(10 ** 15)],
     _hp1_curve_doc()),
    (["evolve", "doc.json", "--mode", "circular", "--lambda", "-1"],
     dict(_hp1_curve_doc(10 ** 3), metadata={"transverse": [[1.0, 0.0, 0.0, 0.0]] * 10 ** 3})),
], ids=["long-axis", "cube", "empty-axis", "pcen", "export", "complex-steps", "circular-steps",
        "transverse"])
def test_a_box_too_large_to_allocate_exits_1(tmp_path, capsys, argv, doc):
    # rejected before any array over the box is made: before, numpy raised
    # from main (a box beyond its index range, a MemoryError), or the
    # circular evolution drew 10**15 seeds one by one
    argv = [_write(tmp_path, a, doc) if a == "doc.json" else a for a in argv]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("error:") == 1
    assert f"holds over {10 ** 6} vertices" in out.err and out.out == ""


@pytest.mark.parametrize("transverse", [5, 2.5, True])
@pytest.mark.parametrize("mode", ["circular", "complex"])
def test_a_transverse_value_that_is_no_list_exits_1(tmp_path, capsys, mode, transverse):
    doc = _hp1_curve_doc() if mode == "circular" else _cp1_curve_doc()
    doc["metadata"]["transverse"] = transverse
    argv = ["evolve", _write(tmp_path, "curve.json", doc), "--mode", mode, "--lambda", "-1"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err == ("error: curve metadata transverse must be a list of seeds, "
                       f"not {transverse!r}\n") and out.out == ""


_TRANSVERSE = {"circular": [[0.1, -2.5, 0.75, 3.0], [1.5, 0.2, -0.3, 0.4], [7.0, 0.0, 1.0, 2.0]],
               "complex": [[0.1, -2.5], [1.5, 0.25], [-0.3, 0.4]]}


@pytest.mark.parametrize("mode", ["circular", "complex"])
def test_the_transverse_seeds_of_a_curve_document_start_the_nets_columns(tmp_path, capsys, mode):
    doc = _hp1_curve_doc() if mode == "circular" else _cp1_curve_doc()
    doc["metadata"]["transverse"] = seeds = _TRANSVERSE[mode]
    out = tmp_path / "net.json"
    argv = ["evolve", _write(tmp_path, "curve.json", doc), "--mode", mode, "--lambda", "-1",
            "--steps", "1", "-o", str(out)]
    assert main(argv) == 0
    net = json.loads(out.read_text())
    assert net["box"] == [doc["box"][0], len(seeds) + 1]
    for n, seed in enumerate(seeds, 1):
        assert json.dumps(net["entries"][f"0,{n}"]) == json.dumps(seed)


@pytest.mark.parametrize("fault", ["short", "long", "inf", "nan"])
@pytest.mark.parametrize("mode", ["circular", "complex"])
def test_a_transverse_seed_of_the_wrong_length_or_not_finite_exits_1(tmp_path, capsys, mode,
                                                                      fault):
    doc = _hp1_curve_doc() if mode == "circular" else _cp1_curve_doc()
    good = _TRANSVERSE[mode][0]
    bad = {"short": good[1:], "long": good + [1.0], "inf": good[:-1] + [math.inf],
           "nan": [math.nan] + good[1:]}[fault]
    doc["metadata"]["transverse"] = [good, bad]
    argv = ["evolve", _write(tmp_path, "curve.json", doc), "--mode", mode, "--lambda", "-1"]
    assert main(argv) == 1
    want = f"needs a list of {len(good)} reals" if fault in ("short", "long") \
        else f"holds {fault}, not a finite real"
    out = capsys.readouterr()
    assert out.err == f"error: transverse seed {want}\n" and out.out == ""


@pytest.mark.parametrize("mode", ["circular", "complex"])
def test_a_curve_with_a_repeated_point_exits_2_in_either_mode(tmp_path, capsys, mode):
    # before, the complex evolution wrote a net whose check exited 2 with
    # "coincident points 0 and 1 in cross ratio"
    kind, n = ("hp1", 4) if mode == "circular" else ("cp1", 2)
    doc = {"schema": 1, "dim": 1, "box": [3], "kind": kind, "metadata": {},
           "entries": {"0": [0] * n, "1": [0] * n, "2": [1] + [0] * (n - 1)}}
    argv = ["evolve", _write(tmp_path, "curve.json", doc), "--mode", mode, "--lambda=-1",
            "--steps", "2"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == "error: degenerate step in row 1: coincident points p1 and p2\n"
    assert out.out == ""


def _header_doc(kind):
    """A valid 3 x 3 hp1 net document, or a PCEN document over such a net."""
    if kind == "pcen":
        return _pcen_doc(np.random.default_rng(15), 3)
    pts = [HPoint.from_quaternion(Quaternion(*q))
           for q in np.random.default_rng(15).standard_normal((5, 4))]
    return net_to_doc(evolve_net_circular(pts[:3], pts[3:], -1.3))


_HEADER_FAULTS = {
    **{f"no-{field}": ((lambda doc, field=field: doc.pop(field)),
                       f"document is missing field {field!r}")
       for field in ("schema", "dim", "box", "kind", "entries")},
    "schema-99": (lambda doc: doc.update(schema=99), "unsupported schema version 99"),
    "kind": (lambda doc: doc.update(kind="hp2"), "unknown document kind 'hp2'"),
    "key": (lambda doc: doc["entries"].update({"3,0": doc["entries"]["0,0"]}),
            "entry index '3,0' outside the box [3, 3]"),
    "dim-63": (lambda doc: doc.update(dim=63, box=[1] * 63, entries={}),
               "document dim 63 is over 62"),
    "dim-of-another-box": (lambda doc: doc.update(dim=3),
                           "document box must hold dim sizes, none negative"),
}


@pytest.mark.parametrize("fault", list(_HEADER_FAULTS))
@pytest.mark.parametrize("kind", ["hp1", "pcen"])
def test_a_malformed_header_exits_1_from_either_reader(tmp_path, capsys, kind, fault):
    # one header check serves doc_to_net and doc_to_pcen.  Before, the net
    # reader exited 2 for a missing field, a schema, a kind or a key outside
    # the box, the PCEN reader took any schema and exited 1 with "'dim'" for a
    # missing dim, and a dim of 63 escaped main from numpy
    mutate, message = _HEADER_FAULTS[fault]
    doc = _header_doc(kind)
    mutate(doc)
    src = _write(tmp_path, "doc.json", doc)
    for argv in (["check", src], ["check", src, "--report", "pcen" if kind == "pcen" else "conic"],
                 ["export", src]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err == f"error: {message}\n" and out.out == ""
    with pytest.raises(DocumentError, match=re.escape(message)):
        (doc_to_pcen if kind == "pcen" else doc_to_net)(doc)


@pytest.mark.parametrize("kind, value", [("hp1", [1.0, 0.0, 0.0, 0.0]),
                                         ("q4", _cvec_out(wedge(*np.eye(4)[:2])))])
def test_a_document_of_62_axes_is_read(tmp_path, capsys, kind, value):
    # the most axes a box may have: its arrays, with an hp1 value's two
    # axes, reach numpy's 64
    doc = dict(_box_doc(kind, [1] * 62), entries={",".join(["0"] * 62): value})
    assert main(["check", _write(tmp_path, "doc.json", doc)]) == 0
    assert "max residual 0.000e+00" in capsys.readouterr().out


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["evolve", "--help"]) == 0
    assert "usage: twistnets" in capsys.readouterr().out


def test_check_reads_huge_coordinates(tmp_path, capsys):
    # the real-line face 0, 1, 2, 1e200 is concircular; the lift of 1e200
    # used to overflow to a zero row (exit 2)
    doc = {"schema": 1, "dim": 2, "box": [2, 2], "kind": "hp1", "metadata": {},
           "entries": {"0,0": [0.0, 0.0, 0.0, 0.0], "1,0": [1.0, 0.0, 0.0, 0.0],
                       "1,1": [2.0, 0.0, 0.0, 0.0], "0,1": [1e200, 0.0, 0.0, 0.0]}}
    assert main(["check", _write(tmp_path, "huge.json", doc)]) == 0
    assert "max residual" in capsys.readouterr().out


def test_check_of_a_norm_above_the_largest_float_is_no_silent_pass(tmp_path, capsys):
    # the lift of [1e308] * 4 has a norm above the largest float; its hypot
    # overflowed to a zero row, and check printed residual 0 and exited 0.
    # It now reports what the same document at 1e300 reports
    outs = []
    for top in (1e308, 1e300):
        doc = {"schema": 1, "dim": 2, "box": [2, 2], "kind": "hp1", "metadata": {},
               "entries": {"0,0": [top] * 4, "0,1": [1.0, 0.0, 0.0, 0.0],
                           "1,0": [0.0, 1.0, 0.0, 0.0], "1,1": [0.5, 0.3, 0.0, 1.0]}}
        assert main(["check", _write(tmp_path, f"top{top:.0e}.json", doc)]) == 3
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "FAIL" in outs[0]


def test_exit_code_malformed_entries(tmp_path, capsys):
    # wrong arity, non-finite numbers and non-integer index keys are
    # malformed documents: exit 1 with a message, never a traceback
    doc = _cp1_curve_doc()
    doc["entries"]["2"] = [0.5]
    src = _write(tmp_path, "short.json", doc)
    assert main(["evolve", src, "--mode", "complex", "--lambda", "-1"]) == 1
    doc = _hp1_curve_doc()
    doc["entries"]["1"][2] = float("nan")
    src = _write(tmp_path, "nan.json", doc)
    out = tmp_path / "net.json"
    assert main(["evolve", src, "--mode", "circular", "--lambda", "-1",
                 "-o", str(out)]) == 1
    assert not out.exists()
    for field, bad in (("box", ["x"]), ("entries", [])):
        doc = _hp1_curve_doc()
        doc[field] = bad
        src = _write(tmp_path, f"bad-{field}.json", doc)
        assert main(["check", src]) == 1
    doc = _hp1_curve_doc()
    doc["entries"]["x"] = doc["entries"].pop("0")
    src = _write(tmp_path, "key.json", doc)
    assert main(["check", src]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["evolve", "one.json", "--mode", "circular", "--lambda", "-1"],
     "curve document is empty or incomplete"),
    (["hexahedron", "three.json"], "hexahedron input needs a 'points' list of 7 bivectors"),
])
def test_malformed_input_raises_document_error(tmp_path, capsys, monkeypatch, argv, message):
    # the commands raise; main prints the one error line and exits 1
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "one.json", _hp1_curve_doc(1))
    _write(tmp_path, "three.json", {"points": [[0.0] * 12] * 3})
    args = build_parser().parse_args(argv)
    with pytest.raises(DocumentError, match=message):
        args.func(args)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dump_doc_rejects_non_finite(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(GeometryError):
        dump_doc({"value": float("nan")}, str(path))
    assert not path.exists()


def test_pcen_doc_check_and_byte_stable_reexport(tmp_path, capsys):
    rng = np.random.default_rng(11)
    pts = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))
           for _ in range(11)]
    net = evolve_net_circular(pts[:6], pts[6:], -1.3)
    lift = net[0, 0].lift()
    sphere = normalize_proj(wedge(lift, rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    pcen = pcen_from_circular(net, contact_element(net[0, 0], sphere))
    first = str(tmp_path / "pcen.json")
    dump_doc(pcen_to_doc(pcen), first)
    assert main(["check", first, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"] == "pcen" and rep["ok"]
    # loading and writing the document again reproduces it byte for byte
    second = str(tmp_path / "again.json")
    dump_doc(pcen_to_doc(doc_to_pcen(load_doc(first))), second)
    assert open(first).read() == open(second).read()


def test_pcen_doc_needs_an_hp1_base():
    # a PCEN from the complex cross-ratio construction sits over a cp1 net,
    # which the pcen document format cannot hold
    rng = np.random.default_rng(13)
    curve = [complex(*rng.standard_normal(2)) for _ in range(3)]
    seeds = [complex(*rng.standard_normal(2)) for _ in range(2)]
    e = np.eye(4, dtype=complex)
    pcen = pcen_from_complex_cr(wedge(e[0], e[2]), evolve_net_complex(curve, seeds, 1j))
    with pytest.raises(GeometryError, match="pcen document needs an hp1 base"):
        pcen_to_doc(pcen)


def _pcen_doc(rng, size):
    pts = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4)))
           for _ in range(2 * size - 1)]
    net = evolve_net_circular(pts[:size], pts[size:], -1.3)
    lift = net[0, 0].lift()
    sphere = normalize_proj(wedge(lift, rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    return pcen_to_doc(pcen_from_circular(net, contact_element(net[0, 0], sphere)))


def test_export_of_a_pcen_document_writes_the_contact_points(tmp_path, capsys):
    doc = _pcen_doc(np.random.default_rng(16), 3)
    obj = tmp_path / "pcen.obj"

    def vertices():
        assert main(["export", _write(tmp_path, "pcen.json", doc), "-o", str(obj)]) == 0
        return [[float(c) for c in line.split()[1:]] for line in obj.read_text().splitlines()
                if line.startswith("v ")]

    # each element touches at its base point, written in the chart without w
    bases = [entry["base"][1:] for _, entry in sorted(doc["entries"].items())]
    assert np.allclose(vertices(), bases, rtol=1e-9, atol=1e-12)
    assert capsys.readouterr().err == ""
    # a plane through the pencil point but not through its j-image makes a
    # half-contact element, which has no point of S^4
    point = np.array(doc["entries"]["1,1"]["point"]).view(complex)
    plane = np.random.default_rng(17).standard_normal(8).view(complex)
    doc["entries"]["1,1"]["plane"] = _cvec_out(plane - (plane @ point) / (point @ point) * point)
    assert np.allclose(vertices(), bases[:4] + bases[5:], rtol=1e-9, atol=1e-12)
    assert capsys.readouterr().err == "warning: skipping half-contact element at index (1, 1)\n"


def test_check_names_a_missing_pcen_element(tmp_path, capsys):
    doc = _pcen_doc(np.random.default_rng(12), 4)
    del doc["entries"]["1,1"]
    assert main(["check", _write(tmp_path, "pcen.json", doc)]) == 1
    assert "PCEN has no element at (1, 1)" in capsys.readouterr().err


def test_pcen_closure_checks_faces_with_a_far_base_point(tmp_path, capsys):
    doc = _pcen_doc(np.random.default_rng(13), 6)
    del doc["entries"]["2,3"]["base"]
    assert main(["check", _write(tmp_path, "pcen.json", doc), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    closure = rep["faces"][0]
    assert closure["face"] == "closure" and closure["faces"] == 24
    assert 0.0 < closure["residual"] < 1e-12


def _grid_pcen_doc(shape):
    net = _grid_net(shape)
    origin = net[(0,) * len(shape)]
    sphere = normalize_proj(wedge(origin.lift(), np.array([1.0, 2.0j, -0.5, 1.0 + 1.0j])))
    return pcen_to_doc(pcen_from_circular(net, contact_element(origin, sphere)))


@pytest.mark.parametrize("shape, faces", [((5,), 0), ((2, 3, 2), 4 + 3 + 4)])
def test_pcen_documents_of_any_dimension_are_checked(tmp_path, capsys, shape, faces):
    # before, the closure of any but a 2-dim PCEN document exited 2 with
    # "face closure needs a 2-dim hp1 base net"
    assert main(["check", _write(tmp_path, "pcen.json", _grid_pcen_doc(shape)), "--json"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    closure, adjacency = json.loads(out.out)["faces"]
    assert (closure["face"], closure["faces"], adjacency["face"]) == ("closure", faces, "adjacency")
    assert closure["residual"] < 1e-12 and adjacency["residual"] < 1e-12


def test_pcen_document_of_a_3_dim_box_without_base_points_reports_the_adjacency(tmp_path, capsys):
    # the alternating elements of a 2 x 2 x 2 complex cross-ratio net, with
    # no base points: the closure checks no face, and the adjacency, which
    # no report reached before, holds
    rng = np.random.default_rng(18)
    base = LatticeNet((2, 2, 2), "cp1", data=rng.standard_normal((2, 2, 2, 2))
                      + 1j * rng.standard_normal((2, 2, 2, 2)))
    e = np.eye(4, dtype=complex)
    pcen = pcen_from_complex_cr(normalize_proj(wedge(e[0], e[2])), base)
    doc = pcen_to_doc(PCEN(LatticeNet((2, 2, 2), "hp1"), pcen.points, pcen.functionals))
    assert main(["check", _write(tmp_path, "pcen.json", doc)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "closure: 0.000e+00 over 0 faces"
    assert out[1].startswith("adjacency: ") and float(out[1].split()[1]) < 1e-15


@pytest.mark.parametrize("argv", [
    ["check", "{src}", "--report", "planarity"],
    ["check", "{src}", "--report", "conic"],
    ["check", "{src}", "--report", "cr"],
    ["evolve", "{src}", "--mode", "circular", "--lambda", "-1"],
    ["holonomy", "{src}", "--lambda", "-1"],
], ids=["planarity", "conic", "cr", "evolve", "holonomy"])
def test_commands_that_read_nets_refuse_a_pcen_document(tmp_path, capsys, argv):
    # before, the message said only "pcen documents are handled separately"
    src = _write(tmp_path, "pcen.json", _pcen_doc(np.random.default_rng(19), 3))
    assert main([a.format(src=src) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err == "error: this command needs a net document, not a pcen document\n"
    assert out.out == ""


@pytest.mark.parametrize("box", [[0, 3], [3, 0]])
def test_pcen_report_of_a_box_with_an_empty_axis_checks_no_edge(tmp_path, capsys, box):
    # before, the adjacency of the edges along the other axis, none, raised
    # numpy's ValueError for the largest of no residuals
    doc = {"schema": 1, "dim": 2, "box": box, "kind": "pcen", "entries": {}, "metadata": {}}
    assert main(["check", _write(tmp_path, "pcen.json", doc), "--json"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert [(row["face"], row["residual"]) for row in json.loads(out.out)["faces"]] == [
        ("closure", 0.0), ("adjacency", 0.0)]


def _hp1_net_doc():
    rng = np.random.default_rng(14)
    pts = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4))) for _ in range(5)]
    return net_to_doc(evolve_net_circular(pts[:3], pts[3:], -0.8))


def _pcen_entry_fault(fault):
    def doc():
        doc = _pcen_doc(np.random.default_rng(15), 3)
        if fault == "list":
            doc["entries"]["1,1"] = list(doc["entries"]["1,1"].values())
        else:
            del doc["entries"]["1,1"][fault]
        return doc
    return doc


@pytest.mark.parametrize("argv, doc, code, message", [
    (["export", "{src}", "--target", "json"], lambda: {"x": 1}, 1,
     "document is missing field 'schema'"),
    (["export", "{src}", "--target", "json"], _pcen_entry_fault("plane"), 1,
     "pcen entry '1,1' is missing field 'plane'"),
    (["check", "{src}", "--report", "cr"], _hp1_net_doc, 2,
     "cross-ratio reports need a cp1 net, not hp1"),
    (["check", "{src}", "--report", "conic"], _hp1_net_doc, 2, "conic reports need a q4 net"),
    (["check", "{src}"], _pcen_entry_fault("point"), 1,
     "pcen entry '1,1' is missing field 'point'"),
    (["check", "{src}", "--report", "pcen"], _pcen_entry_fault("list"), 1,
     "pcen entry '1,1' must be an object"),
    (["export", "{src}"], _pcen_entry_fault("list"), 1, "pcen entry '1,1' must be an object"),
], ids=["json-no-document", "json-pcen-no-plane", "cr-of-hp1", "conic-of-hp1",
        "check-pcen-no-point", "check-pcen-entry-list", "obj-pcen-entry-list"])
def test_documents_the_readers_refuse_exit_with_one_message(tmp_path, capsys, argv, doc, code,
                                                             message):
    # export --target json writes what the readers return, the cr report
    # needs a cp1 net, and a PCEN entry must be an object with a point and a
    # plane.  Before, export wrote any JSON object back with exit 0, the cr
    # report of an hp1 net exited 1 with a Python repr, and a bad PCEN entry
    # exited 1 with a KeyError or TypeError message
    src = _write(tmp_path, "doc.json", doc())
    assert main([a.format(src=src) for a in argv]) == code
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""


@pytest.mark.parametrize("argv, patch", [
    (["check", "{src}", "--json"], ("pcen_adjacency_residual", lambda pcen: float("nan"))),
    (["hexahedron", "{hex}", "--json"], ("quadric_pair", lambda a, b: complex("inf"))),
])
def test_json_outputs_map_non_finite_to_exit_2(tmp_path, capsys, monkeypatch, argv, patch):
    import twistnets.cli as cli
    src = _write(tmp_path, "pcen.json", _pcen_doc(np.random.default_rng(14), 3))
    e = np.eye(4, dtype=complex)
    cube = [wedge(e[0], e[1]), wedge(e[0], e[2]), wedge(e[0], e[3]), wedge(e[1], e[2])]
    cube += [cube[0] + cube[1] + cube[2], cube[0] + cube[1] + cube[3], cube[0] + cube[2] + cube[3]]
    hexa = _write(tmp_path, "hex.json", {"points": [_cvec_out(normalize_proj(p)) for p in cube]})
    monkeypatch.setattr(cli, *patch)
    assert main([a.format(src=src, hex=hexa) for a in argv]) == 2
    out = capsys.readouterr()
    assert "non-finite value in output" in out.err and out.out == ""


def test_exit_code_geometry_errors(tmp_path, capsys):
    src = _write(tmp_path, "curve.json", _hp1_curve_doc())
    # lambda = 1 is a degenerate cross ratio
    assert main(["evolve", src, "--mode", "circular", "--lambda", "1"]) == 2
    # complex lambda is rejected for circular evolution
    assert main(["evolve", src, "--mode", "circular", "--lambda", "0+1i"]) == 2
    capsys.readouterr()


def test_hexahedron_command(tmp_path, capsys):
    e = np.eye(4, dtype=complex)
    from twistnets.proj4 import wedge
    phi = wedge(e[0], e[1])
    p1, p2, p3 = wedge(e[0], e[2]), wedge(e[0], e[3]), wedge(e[1], e[2])
    pts = [phi, p1, p2, p3, phi + p1 + p2, phi + p1 + p3, phi + p2 + p3]
    doc = {"points": [_cvec_out(normalize_proj(p)) for p in pts]}
    src = _write(tmp_path, "hex.json", doc)
    assert main(["hexahedron", src, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    got = np.array([complex(rep["eighth"][2 * k], rep["eighth"][2 * k + 1])
                    for k in range(6)])
    want = normalize_proj(2 * phi + p1 + p2 + p3)
    from twistnets.proj4 import proj_distance
    assert proj_distance(got, want) < 1e-9
    # the text report prints the same numbers
    assert main(["hexahedron", src]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "eighth point:", "  " + " ".join(f"{c:.17g}" for c in rep["eighth"]),
        f"quadric residual: {rep['quadric_residual']:.3e}"]
    # wrong shape is a usage error
    bad = _write(tmp_path, "bad.json", {"points": doc["points"][:3]})
    assert main(["hexahedron", bad]) == 1
    capsys.readouterr()
    # a zero point is degenerate geometry, also when all seven are zero
    for zero in ([0], [5], range(7)):
        points = [[0.0] * 12 if k in zero else p for k, p in enumerate(doc["points"])]
        assert main(["hexahedron", _write(tmp_path, "zero.json", {"points": points}),
                     "--json"]) == 2
        out = capsys.readouterr()
        assert out.err == "error: cannot normalize (near-)zero homogeneous vector\n"
        assert out.out == ""
    # a cube whose face {phi1, phi12, phi13} has a spread of 3e-5, s3 / s1 far
    # above the plane rule's relative cut, completes (test_nets checks faces)
    rng = np.random.default_rng(5)
    phi, p1, p2, p3 = (np.r_[rng.standard_normal(4) + 1j * rng.standard_normal(4), 0, 0]
                       for _ in range(4))
    c = [complex(*rng.standard_normal(2)) for _ in range(7)]
    narrow = [phi, p1, p2, p3, p1 + 3e-5 * (c[0] * phi + c[1] * p2),
              p1 + 3e-5 * (c[2] * phi + c[3] * p3), c[4] * phi + c[5] * p2 + c[6] * p3]
    assert main(["hexahedron", _write(tmp_path, "narrow.json",
                                      {"points": [_cvec_out(p) for p in narrow]})]) == 0
    assert capsys.readouterr().err == ""


def test_holonomy_command(tmp_path, capsys):
    src = _write(tmp_path, "hexagon.json", _cp1_curve_doc(6))
    assert main(["holonomy", src, "--lambda", "-1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["eigenlines"]) == 2
    assert rep["parabolic"] is False
    h = np.array([[complex(*rep["matrix"][i][j]) for j in range(2)]
                  for i in range(2)])
    assert abs(np.linalg.det(h)) > 1e-12
    # the text report prints the same numbers
    assert main(["holonomy", src, "--lambda", "-1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "holonomy matrix:",
        *("  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}i" for z in row) for row in h),
        *(f"eigenline {k}: " + ("inf" if z is None else f"{complex(*z):.12g}")
          for k, z in enumerate(rep["eigenlines"])),
        f"parabolic: {rep['parabolic']}"]


@pytest.mark.parametrize("doc", [[], ["x"], "x", 1.5, None])
def test_a_document_that_is_no_object_exits_1(tmp_path, capsys, doc):
    src = _write(tmp_path, "doc.json", doc)
    for argv in (["check", src], ["export", src], ["hexahedron", src],
                 ["evolve", src, "--mode", "circular", "--lambda", "-1"],
                 ["holonomy", src, "--lambda", "-1"]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: a document must be a JSON object") and out.out == ""
    for load in (doc_to_net, doc_to_pcen):
        with pytest.raises(DocumentError, match="must be a JSON object"):
            load(doc)


@pytest.mark.parametrize("lam", ["1", "0", "1e-12"])
def test_holonomy_at_a_cross_ratio_of_0_or_1_exits_2(tmp_path, capsys, lam):
    # before, it printed a holonomy matrix and exited 0
    src = _write(tmp_path, "hexagon.json", _cp1_curve_doc(6))
    assert main(["holonomy", src, "--lambda", lam]) == 2
    out = capsys.readouterr()
    assert out.err == "error: degenerate cross-ratio value 0 or 1\n" and out.out == ""


def test_holonomy_beyond_the_float_range_exits_2(tmp_path, capsys):
    # 24 distinct points on the circle |z| = 1e7: at a cross ratio of 1e13
    # the product of their transfer matrices overflows (a RuntimeWarning,
    # an error here), which eig cannot take
    doc = {"schema": 1, "dim": 1, "box": [24], "kind": "cp1",
           "entries": {str(k): [1e7 * math.cos(k * math.pi / 12), 1e7 * math.sin(k * math.pi / 12)]
                       for k in range(24)}, "metadata": {}}
    assert main(["holonomy", _write(tmp_path, "huge.json", doc), "--lambda", "1e13"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: holonomy matrix overflows the float range\n" and out.out == ""


@pytest.mark.parametrize("entries, pair", [
    ({"0": [0.0, 0.0], "1": [0.0, 0.0], "2": [1.0, 0.0], "3": [2.0, 0.0]}, "0 and 1"),
    ({"0": [0.5, 0.0], "1": [1.0, 0.0], "2": [2.0, 0.0], "3": [2.0 + 1e-10, 0.0]}, "2 and 3"),
    ({"0": [0.5, 0.0], "1": [1.0, 0.0], "2": [2.0, 0.0], "3": [0.5 + 1e-11, 0.0]}, "3 and 0"),
    ({"0": [1e300, 0.0], "1": None, "2": [1.0, 0.0]}, "0 and 1"),
], ids=["repeated", "near", "closing", "infinity"])
def test_holonomy_of_coincident_curve_points_exits_2(tmp_path, capsys, entries, pair):
    # consecutive points that coincide by ExtC.isclose, the closing pair
    # included (one closer than the 1e-12 repeat cut is dropped), give an
    # edge a singular transfer matrix; before, [0, 0, 1, 2] printed the
    # singular holonomy [[4, 0], [-2, 0]] and exited 0
    doc = {"schema": 1, "dim": 1, "box": [len(entries)], "kind": "cp1", "entries": entries,
           "metadata": {}}
    assert main(["holonomy", _write(tmp_path, "curve.json", doc), "--lambda", "-1"]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: coincident points {pair} on the closed curve\n" and out.out == ""


def test_holonomy_of_a_point_beyond_the_cp1_window_is_that_of_infinity(tmp_path, capsys):
    # ExtC scales the pair of an 8.4e154 coordinate when it is made, so the
    # transfer matrices stay finite; before, their product overflowed and
    # the command exited 2
    eigenlines = []
    for value in ([0.8, 8.4e154], None):
        doc = _cp1_curve_doc(4)
        doc["entries"]["3"] = value
        assert main(["holonomy", _write(tmp_path, "curve.json", doc), "--lambda", "-1",
                     "--json"]) == 0
        eigenlines.append(np.array(json.loads(capsys.readouterr().out)["eigenlines"]))
    assert np.abs(eigenlines[0] - eigenlines[1]).max() < 1e-14


def test_two_boundary_points_near_infinity_evolve_without_nan(tmp_path):
    # p1 and p3 of the face (1, 1) lie past the infinity cut, and its fourth
    # point is infinity: before, the step's products overflowed, the net held
    # the NaN pair there and the writer read it as null
    curve = {"schema": 1, "dim": 1, "box": [2], "kind": "cp1",
             "entries": {"0": [2, 0], "1": [1e200, 0]}, "metadata": {"transverse": [[3e200, 0]]}}
    out = tmp_path / "net.json"
    assert main(["evolve", _write(tmp_path, "curve.json", curve), "--mode", "complex",
                 "--lambda", "0.5+0.5i", "--steps", "1", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["entries"]["1,1"] is None
    net = evolve_net_complex([2.0, 1e200], [3e200], 0.5 + 0.5j)
    assert np.isfinite(net.data).all() and net[1, 1].is_infinity()


# a cp1 curve and cross ratio whose face's fourth point has |den| = 3.3e-17,
# inside the infinity cut of CP^1
_NEAR_INFINITY_CURVE = {
    "schema": 1, "dim": 1, "box": [2], "kind": "cp1",
    "entries": {"0": [-0.535669373161111, 0.36159505490948474],
                "1": [0.6404226504432821, 0.10490011715303971]},
    "metadata": {"transverse": [[4.929819010210335, 4.062556159586088]]}}
_NEAR_INFINITY_LAMBDA = "0.1257302210933933-0.1321048632913019i"


def test_a_fourth_point_at_the_infinity_cut_is_written_as_null(tmp_path, capsys):
    # before, the document writer decided infinity at a cut of 0 and
    # ExtC.value at 1e-14, so this evolution exited 2 with "point at infinity
    # has no finite value"
    z = evolve_net_complex([complex(*z) for z in _NEAR_INFINITY_CURVE["entries"].values()],
                           [complex(*_NEAR_INFINITY_CURVE["metadata"]["transverse"][0])],
                           parse_complex(_NEAR_INFINITY_LAMBDA))[1, 1]
    assert z.den != 0 and z.is_infinity()
    out = tmp_path / "net.json"
    assert main(["evolve", _write(tmp_path, "curve.json", _NEAR_INFINITY_CURVE), "--mode",
                 "complex", f"--lambda={_NEAR_INFINITY_LAMBDA}", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["entries"]["1,1"] is None
    assert main(["check", str(out), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"] == "cr" and rep["ok"] and rep["max_residual"] < 1e-16


def test_writers_and_reports_decide_infinity_as_ext_value_does(tmp_path, capsys, monkeypatch):
    """The document writer, holonomy's text output and the cr report read
    ExtC.is_infinity, the cut at which ExtC.value refuses; before, each
    of them called value on ExtC(1, 1e-20) and exited 2."""
    import twistnets.cli as cli
    z = ExtC(1.0, 1e-20)
    with pytest.raises(GeometryError, match="point at infinity has no finite value"):
        z.value()
    assert z.is_infinity() and cli._ext_out(z) is None
    src = _write(tmp_path, "hexagon.json", _cp1_curve_doc(6))
    monkeypatch.setattr(cli, "holonomy", lambda curve, lam: (np.eye(2), [z, ExtC(2.0, 1.0)], False))
    assert main(["holonomy", src, "--lambda", "-1"]) == 0
    assert capsys.readouterr().out.splitlines()[3:5] == ["eigenline 0: inf", "eigenline 1: 2"]
    assert main(["holonomy", src, "--lambda", "-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["eigenlines"] == [None, [2.0, 0.0]]
    # a cr report whose cross ratios are all at the cut reads inf: its text
    # fails the tolerance (exit 3), and JSON has no inf (exit 2)
    net = str(tmp_path / "net.json")
    assert main(["evolve", src, "--mode", "complex", "--lambda", "-1", "--steps", "2",
                 "-o", net]) == 0
    monkeypatch.setattr(cli, "complex_cr", lambda *points: z)
    assert main(["check", net]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "max residual inf (tol 1e-08)"
    assert main(["check", net, "--json"]) == 2
    out = capsys.readouterr()
    assert "non-finite value in output" in out.err and out.out == ""


@pytest.mark.parametrize("argv, doc", [
    (["evolve", "{src}", "--mode", "complex", "--lambda", "1e14"], _cp1_curve_doc),
    (["evolve", "{src}", "--mode", "circular", "--lambda=-1e15"], _hp1_curve_doc),
    (["holonomy", "{src}", "--lambda", "0+1e15i"], _cp1_curve_doc),
], ids=["complex", "circular", "holonomy"])
def test_a_cross_ratio_at_the_infinity_cut_exits_2_in_every_command(tmp_path, capsys, argv,
                                                                     doc):
    # |lam| >= 1e14 is infinity in CP^1, as ExtC(lam, 1).is_infinity() says.
    # Before, the complex evolution exited 2 with "point at infinity has no
    # finite value" from its first face, and the circular evolution and the
    # holonomy exited 0
    src = _write(tmp_path, "curve.json", doc())
    assert main([a.format(src=src) for a in argv]) == 2
    out = capsys.readouterr()
    row = "degenerate step in row 1: " if argv[0] == "evolve" else ""
    assert out.err == f"error: {row}degenerate cross-ratio value infinity\n" and out.out == ""


def _repeated_index_doc(kind):
    """A cp1 curve or a PCEN document with one entry named twice: by the
    key "1" and "01", or "1,1" and "1,01"."""
    if kind == "pcen":
        doc = _pcen_doc(np.random.default_rng(20), 3)
        doc["entries"]["1,01"] = doc["entries"]["0,0"]
        return doc, "entry index '1,01' repeats index (1, 1)"
    doc = dict(_cp1_curve_doc(2), entries={"1": [1.0, 0.0], "01": [5.0, 5.0]})
    return doc, "entry index '01' repeats index (1,)"


@pytest.mark.parametrize("kind", ["cp1", "pcen"])
def test_an_index_that_a_document_names_twice_exits_1(tmp_path, capsys, kind):
    # before, the last entry for the index was kept: a JSON export of the cp1
    # curve exited 0 and wrote one entry, [5, 5]
    doc, message = _repeated_index_doc(kind)
    src = _write(tmp_path, "doc.json", doc)
    for argv in (["export", src, "--target", "json"], ["check", src]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err == f"error: {message}\n" and out.out == ""
    with pytest.raises(DocumentError, match=re.escape(message)):
        (doc_to_pcen if kind == "pcen" else doc_to_net)(doc)


@pytest.mark.parametrize("kind", ["cp1", "pcen"])
def test_a_key_that_a_json_object_repeats_exits_1(tmp_path, capsys, kind):
    # json.load keeps the last value of a repeated key; the entries object
    # of a net and an element of a PCEN each name one key twice
    doc = _cp1_curve_doc(2) if kind == "cp1" else _pcen_doc(np.random.default_rng(21), 3)
    text = json.dumps(doc)
    if kind == "cp1":
        text, key = text.replace('"1": [', '"0": [1, 0], "1": [', 1), "0"
    else:
        text, key = text.replace('"plane": [', '"point": [1, 0, 0, 0, 0, 0, 0, 0], "plane": [',
                                 1), "point"
    src = tmp_path / "doc.json"
    src.write_text(text)
    for argv in (["export", str(src), "--target", "json"], ["check", str(src)]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err == f"error: key {key!r} repeats in a JSON object\n" and out.out == ""


def test_a_pcen_element_whose_point_is_off_its_plane_exits_2(tmp_path, capsys):
    doc = _pcen_doc(np.random.default_rng(22), 3)
    doc["entries"]["1,1"]["point"] = doc["entries"]["1,1"]["plane"]
    assert main(["check", _write(tmp_path, "pcen.json", doc)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: pencil point must lie in the pencil plane\n" and out.out == ""


def _q4_doc_with_the_fiber_over_infinity():
    fibers = [twistor_fiber(HPoint.infinity()),
              twistor_fiber(HPoint.from_quaternion(Quaternion(0.5, 1.0, 0.0, -2.0)))]
    return {"schema": 1, "dim": 1, "box": [2], "kind": "q4", "metadata": {},
            "entries": {str(k): _cvec_out(f) for k, f in enumerate(fibers)}}


@pytest.mark.parametrize("argv, doc, code, err, last", [
    (["evolve", "{src}", "--mode", "circular", "--lambda", "-1"], _cp1_curve_doc, 2,
     "error: circular evolution needs an hp1 curve\n", ""),
    (["evolve", "{src}", "--mode", "complex", "--lambda", "-1"], _hp1_curve_doc, 2,
     "error: complex evolution needs a cp1 curve\n", ""),
    (["holonomy", "{src}", "--lambda", "-1"],
     lambda: net_to_doc(evolve_net_complex([0.5, 2.0, 1j], [-1.0], -1.0)), 2,
     "error: holonomy expects a one-dimensional cp1 document\n", ""),
    (["export", "{src}"], _q4_doc_with_the_fiber_over_infinity, 0,
     "warning: skipping point at infinity at index (0,)\n", "v 1 "),
    (["check", "-"], _hp1_net_doc, 0, "", "max residual"),
], ids=["circular-of-cp1", "complex-of-hp1", "holonomy-of-2-dim", "export-infinite-fiber",
        "check-stdin"])
def test_command_line_paths_of_mode_kind_and_input(tmp_path, capsys, monkeypatch, argv, doc,
                                                   code, err, last):
    text = json.dumps(doc())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    src = tmp_path / "doc.json"
    src.write_text(text)
    assert main([a.format(src=src) for a in argv]) == code
    out = capsys.readouterr()
    assert out.err == err
    assert out.out.splitlines()[-1].startswith(last) if last else out.out == ""


def test_lie_report_command(capsys):
    assert main(["lie-report", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["basis_signature"] == [2, 4]
    assert rep["omega_slice_signature"] == [1, 4]
    assert rep["dimension"] == 6


@pytest.mark.parametrize("argv, doc, code, err", [
    (["evolve", "{src}", "--mode", "complex", "--lambda", "-0.5+1i"], _cp1_curve_doc, 0, ""),
    (["evolve", "{src}", "--mode", "circular", "--lambda", "-2e-3"], _hp1_curve_doc, 0, ""),
    (["evolve", "{src}", "--mode", "circular", "--lambda", "-1e15"], _hp1_curve_doc, 2,
     "error: degenerate step in row 1: degenerate cross-ratio value infinity\n"),
    (["holonomy", "{src}", "--lambda", "-0.5+1i"], _cp1_curve_doc, 0, ""),
    (["holonomy", "{src}", "--lambda", "-2e-3", "--json"], _cp1_curve_doc, 0, ""),
    (["evolve", "{src}", "--mode", "complex", "--lambda", "-1", "--lift", "--sphere",
      "-1" + ",0" * 11], _cp1_curve_doc, 2,
     "error: S must be a sphere lift, not a twistor fiber\n"),
    (["holonomy", "{src}", "--lambda", "--json"], _cp1_curve_doc, 1,
     "error: cannot parse '--json' as a finite complex number\n"),
], ids=["complex", "circular", "circular-infinity", "holonomy", "holonomy-json", "sphere",
        "option-as-value"])
def test_a_value_that_starts_with_a_minus_is_the_options_value(tmp_path, capsys, argv, doc,
                                                               code, err):
    # argparse reads a token that starts with '-' as an option unless it is a
    # plain negative decimal such as -1; before, each of these exited 1 with
    # "argument --lambda: expected one argument".  The sphere -e1^e1j is the
    # fiber over infinity
    src = _write(tmp_path, "curve.json", doc())
    argv = [a.format(src=src) for a in argv]
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.err == err
    # the same as the option joined to its value, which argparse always read
    k = argv.index("--sphere" if "--sphere" in argv else "--lambda")
    assert main(argv[:k] + [f"{argv[k]}={argv[k + 1]}"] + argv[k + 2:]) == code
    assert capsys.readouterr() == out


@pytest.mark.parametrize("argv, doc, code", [
    (["holonomy", "{src}", "--lam", "-0.5+1i"], _cp1_curve_doc, 0),
    (["evolve", "{src}", "--mode", "complex", "--lamb", "-0.5+1i"], _cp1_curve_doc, 0),
    (["evolve", "{src}", "--mode", "complex", "--lambda", "-1", "--lift", "--sph",
      "-1" + ",0" * 11], _cp1_curve_doc, 2),
], ids=["lam", "lamb", "sph"])
def test_an_abbreviated_option_takes_a_value_that_starts_with_a_minus(tmp_path, capsys, argv,
                                                                      doc, code):
    # argparse resolves --lam to --lambda and --sph to --sphere; before, each
    # exited 1 with "argument --lambda: expected one argument"
    src = _write(tmp_path, "curve.json", doc())
    argv = [a.format(src=src) for a in argv]
    assert main(argv) == code
    out = capsys.readouterr()
    # the same as the full option name
    full = [{"--lam": "--lambda", "--lamb": "--lambda", "--sph": "--sphere"}.get(a, a)
            for a in argv]
    assert main(full) == code
    assert capsys.readouterr() == out


def test_a_bare_double_dash_and_an_ambiguous_abbreviation_are_not_options_values(tmp_path,
                                                                                capsys):
    src = _write(tmp_path, "curve.json", _cp1_curve_doc())
    # the input after '--' stays positional
    assert main(["holonomy", "--lambda", "-2e-3", "--", src]) == 0
    capsys.readouterr()
    # --l could be --lambda or --lift in evolve: a usage error
    assert main(["evolve", src, "--mode", "complex", "--l", "-1"]) == 1
    assert "ambiguous option: --l" in capsys.readouterr().err


def test_a_sphere_that_starts_with_a_minus_lifts_a_net(tmp_path, capsys):
    sphere = -_unit_sphere_bivector()
    text = ",".join(repr(x) for x in _cvec_out(sphere))
    assert text.startswith("-")
    src = _write(tmp_path, "curve.json", _cp1_curve_doc())
    out = str(tmp_path / "lifted.json")
    assert main(["evolve", src, "--mode", "complex", "--lambda", "-1", "--lift", "-o", out,
                 "--sphere", text]) == 0
    assert proj_distance(doc_to_net(load_doc(out)).metadata["sphere"], sphere) < 1e-12
    # an option with no value left is still a usage error
    assert main(["holonomy", src, "--lambda"]) == 1
    assert "argument --lambda: expected one argument" in capsys.readouterr().err
