"""A fuzz test of the document boundary: mutated net and PCEN documents go
through doc_to_net, doc_to_pcen and the commands that read documents.

Every run ends in an exit code of 0 (success), 1 (usage or malformed
document), 2 (degenerate geometry) or 3 (a report over its tolerance); no
exception escapes main, no output holds NaN, and no RuntimeWarning is
raised (pyproject.toml makes it an error).  The examples are derandomized,
so every run draws the same documents.
"""

import contextlib
import copy
import functools
import io
import json
import os
import re
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistnets.cli import doc_to_net, doc_to_pcen, main, net_to_doc, pcen_to_doc
from twistnets.contact import contact_element, pcen_from_circular
from twistnets.nets import evolve_net_circular, evolve_net_complex, lift_to_QS2
from twistnets.proj4 import DocumentError, GeometryError, normalize_proj, wedge
from twistnets.quat import Quaternion
from twistnets.twistor import HPoint


@functools.cache
def _documents() -> tuple:
    """Valid documents of every kind the commands read: hp1 and cp1 curves,
    hp1, cp1 and q4 nets and a PCEN."""
    rng = np.random.default_rng(5)
    pts = [HPoint.from_quaternion(Quaternion(*rng.standard_normal(4))) for _ in range(5)]
    hp1 = evolve_net_circular(pts[:3], pts[3:], -0.8)
    zs = [complex(*rng.standard_normal(2)) for _ in range(5)]
    cp1 = evolve_net_complex(zs[:3], zs[3:], 0.4 + 0.7j)
    sphere = normalize_proj(wedge(np.eye(4)[0], np.eye(4)[2]))
    q4 = lift_to_QS2(sphere, cp1)
    line = normalize_proj(wedge(hp1[0, 0].lift(), rng.standard_normal(4)
                                + 1j * rng.standard_normal(4)))
    pcen = pcen_from_circular(hp1, contact_element(hp1[0, 0], line))
    hp1_curve = {"schema": 1, "dim": 1, "box": [4], "kind": "hp1", "metadata": {},
                 "entries": {str(k): rng.standard_normal(4).tolist() for k in range(4)}}
    cp1_curve = {"schema": 1, "dim": 1, "box": [4], "kind": "cp1", "metadata": {},
                 "entries": {str(k): rng.standard_normal(2).tolist() for k in range(4)}}
    return (hp1_curve, cp1_curve, net_to_doc(hp1), net_to_doc(cp1), net_to_doc(q4),
            pcen_to_doc(pcen))


# values a mutation writes: wrong types, empty and nested containers, huge,
# tiny and non-finite numbers (json reads NaN and Infinity), and bad keys
_VALUES = [None, True, 0, -1, 2, 1.5, 1e200, -1e308, 5e-324, float("nan"), float("inf"),
           "x", "", "0,0", [], [0], [1, 0], [0.0, 0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0],
           [0.0] * 8, [1.0] + [0.0] * 11, [[1, 2]], {}, {"point": [0.0] * 8}]
_KEYS = ["0", "1", "-1", "9", "a", "0,0", "0,0,0", "1,1", " 1", "1e3", "point", "plane",
         "base", "lambda", "sphere", "transverse"]


def _containers(doc, path=()):
    """Every dict and list in a document, with its path."""
    if isinstance(doc, (dict, list)):
        yield path, doc
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _containers(value, path + (key,))


# a fresh copy of a pool value, so that later mutations leave the pool alone
_value = st.sampled_from(_VALUES).map(copy.deepcopy)


@st.composite
def _mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_documents())))
    for _ in range(draw(st.integers(1, 3))):
        containers = list(_containers(doc))
        _, node = draw(st.sampled_from(containers))
        action = draw(st.sampled_from(["set", "delete", "add", "scale"]))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(_KEYS))] = draw(_value)
            else:
                node.append(draw(_value))
            continue
        key = draw(st.sampled_from(keys))
        if action == "delete":
            del node[key]
        elif action == "set" or not isinstance(node[key], (int, float)) \
                or isinstance(node[key], bool):
            node[key] = draw(_value)
        else:
            node[key] = node[key] * draw(st.sampled_from([0.0, -1.0, 1e-300, 1e300, 1e155]))
    # the whole document replaced by another JSON value, now and then
    return draw(st.sampled_from([doc] * 12 + [[doc], "doc", 1, None]))


_COMMANDS = [
    ["check", "{doc}"],
    ["check", "{doc}", "--json"],
    ["check", "{doc}", "--report", "planarity"],
    ["check", "{doc}", "--report", "conic", "--json"],
    ["check", "{doc}", "--report", "cr"],
    ["check", "{doc}", "--report", "pcen", "--json"],
    ["export", "{doc}", "-o", "{out}"],
    ["export", "{doc}", "--chart", "z", "-o", "{out}"],
    ["export", "{doc}", "--target", "json", "-o", "{out}"],
    ["evolve", "{doc}", "--mode", "circular", "--lambda", "-1", "--steps", "2", "-o", "{out}"],
    ["evolve", "{doc}", "--mode", "complex", "--lambda", "0+1i", "--steps", "2", "-o", "{out}"],
    ["evolve", "{doc}", "--mode", "complex", "--lambda", "0.5", "--steps", "2", "--lift",
     "-o", "{out}"],
    ["holonomy", "{doc}", "--lambda", "-1", "--json"],
]

_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def _run(argv, text):
    """main on a document, with its exit code, stdout, stderr and output
    file text."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out")
        with open(doc, "w") as fh:
            fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([a.format(doc=doc, out=out) for a in argv])
        written = open(out).read() if os.path.exists(out) else ""
    return code, stdout.getvalue(), stderr.getvalue(), written


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated(), st.sampled_from(_COMMANDS))
def test_mutated_documents_exit_with_a_code_and_no_nan(doc, argv):
    code, stdout, stderr, written = _run(argv, json.dumps(doc))
    assert code in (0, 1, 2, 3), (code, stderr)
    assert "Traceback" not in stderr
    assert not _NAN.search(stdout) and not _NAN.search(written)
    if isinstance(doc, dict) and doc.get("kind") != "pcen":
        try:
            doc_to_net(doc)
        except (GeometryError, DocumentError, KeyError, TypeError):
            pass
    if isinstance(doc, dict):
        try:
            doc_to_pcen(doc)
        except (GeometryError, DocumentError, KeyError, TypeError):
            pass
