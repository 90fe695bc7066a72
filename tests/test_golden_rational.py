"""Byte-identity of `rep check` and `stab tangent` on rational documents.

Pins the sha256 of the `rep check` stdout on documents over Q whose
entries have denominators: representations that are not modules, so the
nonzero relation defect prints as fractions, and gauge-conjugated
modules, whose defect is zero.  Pins the `stab tangent` stdout on
gauge-conjugated orbit modules with denominators, on an orbit plus a zero
summand (a singular point) and on the 15-point A1 orbit module at the
dimension cap.  The values were recorded while both commands still
multiplied and eliminated in Fractions, before they moved to integer
numerators over one common denominator.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden_rational.py``.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import zero_summand

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    gauge_conjugate,
)
from quiverstab.cli import main, rep_to_doc
from quiverstab.fieldops import QQ

# representations over Q that are not modules, as (type, r, v)
NON_MODULES = [("A1", 1, (1, 1)), ("A1", 1, (2, 2)), ("A2", 1, (2, 1, 1)),
               ("A3", 0, (1, 2, 1, 1)), ("D4", 1, (1, 1, 1, 1, 2))]
# orbit modules conjugated by gauges with denominators, as (type, points)
GAUGED = [("A1", ((1, 0), (0, 1))), ("A2", ((1, 0), (0, 1))), ("A2", ((1, 0), (0, 1), (1, 1))),
          ("A3", ((1, 2),))]
CAP_POINTS = tuple((1, k) for k in range(15))  # total dimension 31; the cap is 32

GOLDEN = {
    'check non-module A1 (1, (1, 1))': '8ff5955cfe13e91c19cb417bcf8354f5b09ded06912fa835b2af13643b483c71',
    'check non-module A1 (1, (2, 2))': 'e82e2909514678d9f7cb80a032d697dac1c0e23e65c2bc0786370a1d61424dec',
    'check non-module A2 (1, (2, 1, 1))': '4262614e7c2127aab2bb296e3e9bef119bdb80dc46578d26c4373234ed8b767b',
    'check non-module A3 (0, (1, 2, 1, 1))': '853ae5e66ccff7711de7d58c25063ec577e28c2a87a9607da5c22aac0a0a58be',
    'check non-module D4 (1, (1, 1, 1, 1, 2))': '4ed4d6c5cb65a6fe3b0b77547e56660f4873038c4e25c9360541fe1f430bf682',
    'check gauged orbit A1 n=2': '7bd8a95afecbc3532adc3d9f0879b45ef4e31b82ffe2e241bd9f5111343cfe4e',
    'tangent gauged orbit A1 n=2': 'tangent 4\n',
    'check gauged orbit A2 n=2': '8aaf6a6d096b5b75cd3f8d5126924b47f41cdfb791e5b579e601e2c4516b4f1f',
    'tangent gauged orbit A2 n=2': 'tangent 4\n',
    'check gauged orbit A2 n=3': '9460412109b70f39cd687a881cb4d941fb3ee41f4797fdb9c4736bb2d0fbaeb3',
    'tangent gauged orbit A2 n=3': 'tangent 6\n',
    'check gauged orbit A3 n=1': '83528dbaaed06c6f14ba0a2eb852f38cef7d23c37ae3639035c6a708ef6c28d9',
    'tangent gauged orbit A3 n=1': 'tangent 2\n',
    'check gauged orbit+zero A2 n=2': '8aaf6a6d096b5b75cd3f8d5126924b47f41cdfb791e5b579e601e2c4516b4f1f',
    'tangent gauged orbit+zero A2 n=2': 'tangent 10\n',
    'check orbit A1 n=15': '789d36316ea857690cf3a401ffe63c4b725c3313c854e890103d7a338b859d7d',
    'tangent orbit A1 n=15': 'tangent 30\n',
}


def _entry(k: int) -> Fraction:
    """A fixed sequence of small signed fractions, some of them integers or zero."""
    return Fraction((-1) ** k * (k % 7), k % 4 + 1)


def _non_module(type_label, r, v) -> FramedRep:
    rs = build_root_system(DynkinType.parse(type_label))
    quiver = framed_quiver(rs)
    dims = DimVector(r, v)
    k = 0
    matrices = {}
    for a in quiver.arrows:
        m, n = dims.at(a.head), dims.at(a.tail)
        rows = []
        for _ in range(m):
            rows.append([_entry(k + j) for j in range(n)])
            k += n
        matrices[a.label] = rows
    return FramedRep(quiver, QQ, dims, matrices)


def _gauge(rep) -> dict:
    """Upper unitriangular times a diagonal of fractions: invertible, with denominators."""
    gauge = {}
    for i, d in enumerate(rep.dims.v):
        gauge[i] = [
            [Fraction(i + j + 2, j + 1) if j == c else _entry(3 * j + c + i) if c > j else 0
             for c in range(d)]
            for j in range(d)
        ]
    return gauge


def _orbit(type_label, points):
    rs = build_root_system(DynkinType.parse(type_label))
    return framed_orbit_sum(rs, list(points), QQ)


def _main(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _documents():
    """(case label, representation document, commands) per document."""
    out = []
    for type_label, r, v in NON_MODULES:
        rep = _non_module(type_label, r, v)
        out.append((f"non-module {type_label} {(r, v)}", rep_to_doc(rep, n=1), ("check",)))
    for type_label, points in GAUGED:
        orbit = _orbit(type_label, points)
        rep = gauge_conjugate(orbit, _gauge(orbit))
        label = f"gauged orbit {type_label} n={len(points)}"
        out.append((label, rep_to_doc(rep, n=len(points)), ("check", "tangent")))
    rs = build_root_system(DynkinType.parse("A2"))
    plus = direct_sum([_orbit("A2", ((1, 1),)), zero_summand(rs)])
    rep = gauge_conjugate(plus, _gauge(plus))
    out.append(("gauged orbit+zero A2 n=2", rep_to_doc(rep, n=2), ("check", "tangent")))
    cap = _orbit("A1", CAP_POINTS)
    out.append(("orbit A1 n=15", rep_to_doc(cap, n=15), ("check", "tangent")))
    return out


def outputs(tmp: Path) -> dict:
    got = {}
    for k, (label, doc, commands) in enumerate(_documents()):
        path = tmp / f"rep_{k}.json"
        path.write_text(json.dumps(doc))
        for cmd in commands:
            if cmd == "check":
                got[f"check {label}"] = _sha(_main("rep", "check", "--rep", str(path)))
            else:
                got[f"tangent {label}"] = _main("stab", "tangent", "--rep", str(path))
    return got


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden_rational"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_are_pinned(actual, case):
    assert actual[case] == GOLDEN[case]


def test_every_case_is_pinned(actual):
    assert sorted(actual) == sorted(GOLDEN)


def test_the_documents_have_denominators_and_nonzero_defects():
    docs = {label: doc for label, doc, _ in _documents()}
    for label, doc in docs.items():
        if label != "orbit A1 n=15":
            assert any("/" in x for mat in doc["matrices"].values() for row in mat for x in row)
    with tempfile.TemporaryDirectory() as tmp:
        for type_label, r, v in NON_MODULES:
            path = Path(tmp) / "rep.json"
            path.write_text(json.dumps(docs[f"non-module {type_label} {(r, v)}"]))
            out = _main("rep", "check", "--rep", str(path))
            assert out.endswith("module false\n") and "/" in out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, value in outputs(Path(tmp)).items():
            print(f"    {case!r}: {value!r},")
