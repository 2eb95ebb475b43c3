import json

import numpy as np
import pytest

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
from twistnets.contact import contact_element, pcen_from_circular, pcen_from_complex_cr
from twistnets.nets import (
    LatticeNet,
    evolve_net_circular,
    evolve_net_complex,
    lift_to_QS2,
    quadric_defects,
)
from twistnets.proj4 import RANK_CUT, DocumentError, GeometryError, span_ratios, wedge


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
    from twistnets.proj4 import GeometryError
    with pytest.raises(GeometryError):
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
    net = LatticeNet(3, (3, 2, 4), kind)
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
    net = LatticeNet(2, (2, 2), "cp3")
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
    # wrong shape is a usage error
    bad = _write(tmp_path, "bad.json", {"points": doc["points"][:3]})
    assert main(["hexahedron", bad]) == 1


def test_holonomy_command(tmp_path, capsys):
    src = _write(tmp_path, "hexagon.json", _cp1_curve_doc(6))
    assert main(["holonomy", src, "--lambda", "-1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["eigenlines"]) == 2
    assert rep["parabolic"] is False
    h = np.array([[complex(*rep["matrix"][i][j]) for j in range(2)]
                  for i in range(2)])
    assert abs(np.linalg.det(h)) > 1e-12


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


def test_holonomy_beyond_the_float_range_exits_2(tmp_path, capsys):
    # the transfer matrices of an 8e154 coordinate overflow in their product
    # (a RuntimeWarning, an error here), which eig cannot take
    doc = _cp1_curve_doc(4)
    doc["entries"]["3"] = [0.8, 8.4e154]
    assert main(["holonomy", _write(tmp_path, "huge.json", doc), "--lambda", "-1"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: holonomy matrix overflows the float range\n" and out.out == ""


def test_lie_report_command(capsys):
    assert main(["lie-report", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["basis_signature"] == [2, 4]
    assert rep["omega_slice_signature"] == [1, 4]
    assert rep["dimension"] == 6
