"""Byte-identity of `stab report` and `stab hn` on the lattice side.

Pins, per module, the sha256 of the `stab report` stdout and of the
`stab hn` stdout at every Craw-Ishii theta_J (J in subset order), joined
into one text per command.  The modules are the twelve of
``build_corpus``, the zero-arrow modules that ``test_lattice_oracle.py``
compares with the reference engine, and the A1 and A2 orbit modules of
two points over F3, F5 and F2.  The hashes were recorded before subspaces
were interned and the HN, JH and report walks moved to integer
pairings, so a change in lattice order, witnesses, slopes or Jordan-Hoelder
factors shows up here.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden_stab.py``.
"""

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import build_corpus

from quiverstab import DimVector, DynkinType, FramedRep, build_root_system, framed_quiver
from quiverstab.cli import main, rep_to_doc
from quiverstab.fieldops import PrimeField

# the zero-arrow modules (1, n delta) of test_lattice_oracle.py, as (type, n, v, p)
ZERO_ARROW = [("A1", 1, (1, 1), 2), ("A1", 1, (1, 1), 3), ("A2", 1, (1, 1, 1), 2),
              ("A2", 1, (1, 1, 1), 3), ("A1", 2, (2, 2), 2), ("A1", 2, (2, 2), 5)]
# orbit modules of two points, as (type, p); p must not divide the group order
ORBITS = [("A1", 3), ("A1", 5), ("A2", 2)]
ORBIT_POINTS = "1,0;0,1"

GOLDEN = {
    'corpus 0 orbit report': '5691f5694331f2ca3d934268e2a7cd6910012d80934671b2028b2854985c883c',
    'corpus 0 orbit hn': '56a8875a6a4e41a1ebb2e9b3d5f3b9af468101eb13c3947c553665b8bc0994de',
    'corpus 1 broken-framing+gauge report': '107cfd8fbf8c99e4c212a1e0119e3d2bcb3d53668870a54cb0fdc4e7fd90262b',
    'corpus 1 broken-framing+gauge hn': '44aed32f72ddaa0d3a7cd0e5fc1bde868cc5d5dfb3948eb9e5bbe4480b4394b0',
    'corpus 2 framed-plus-unframed report': 'c5bd08f82a41f03996a2b26ffbaae8fcf0a89041c407f93d596a12808de539fc',
    'corpus 2 framed-plus-unframed hn': 'ef8b894c64e4933a39eed9bf56af4933469b4b1bce73ad011bdb49dad097d551',
    'corpus 3 framed-plus-zero report': 'ba0bc5c4734a2a0951f04b3bec158abc476ea90a1ce2a8ecad36b0009532297c',
    'corpus 3 framed-plus-zero hn': '232ba902af6ef97510119d7008de09d36f8beef09c113820898e9bbfb9da6748',
    'corpus 4 orbit+gauge report': '5691f5694331f2ca3d934268e2a7cd6910012d80934671b2028b2854985c883c',
    'corpus 4 orbit+gauge hn': '56a8875a6a4e41a1ebb2e9b3d5f3b9af468101eb13c3947c553665b8bc0994de',
    'corpus 5 orbit report': '30ba69b4cb16028dd5713787e99a2344cfe9ba7e64f244b764083c03d40fa8d8',
    'corpus 5 orbit hn': '75f728a6c86e5d3c8f0a59e76e13ee798aa445cb9f85e2ae1f3d7870bbe20922',
    'corpus 6 broken-framing report': 'c21386184f8472833a03eb32777bd78e81cb81a8f59c970b5fe1e78d1a0f93a7',
    'corpus 6 broken-framing hn': '7fa3a88433ff4d15a9af57e3c78b5d89ad8e0ec650c2c449b0890b11bd71f180',
    'corpus 7 framed-plus-unframed+gauge report': 'e88349ff9a2b0c5325e40c43c4416c3b2a701c93e43b309d832e82c23f01ad11',
    'corpus 7 framed-plus-unframed+gauge hn': 'f16d8933eea3f47b02e2574667e1e8f29db9b5c1fcd4314a61e2a6613943ae9b',
    'corpus 8 orbit report': '5691f5694331f2ca3d934268e2a7cd6910012d80934671b2028b2854985c883c',
    'corpus 8 orbit hn': '56a8875a6a4e41a1ebb2e9b3d5f3b9af468101eb13c3947c553665b8bc0994de',
    'corpus 9 orbit report': '30ba69b4cb16028dd5713787e99a2344cfe9ba7e64f244b764083c03d40fa8d8',
    'corpus 9 orbit hn': '75f728a6c86e5d3c8f0a59e76e13ee798aa445cb9f85e2ae1f3d7870bbe20922',
    'corpus 10 orbit+gauge report': '5691f5694331f2ca3d934268e2a7cd6910012d80934671b2028b2854985c883c',
    'corpus 10 orbit+gauge hn': '2ed0c0e13a83a7f1c9e7912761fb530e54ea53005046e5b2af18e1ae14213343',
    'corpus 11 broken-framing report': '107cfd8fbf8c99e4c212a1e0119e3d2bcb3d53668870a54cb0fdc4e7fd90262b',
    'corpus 11 broken-framing hn': '19bd46c32235718b1948ad3d50f253a89637ba67bbcb87f31391460c249257fd',
    'zero A1 n=1 F2 report': '4d60151e29da6a5265e3d2ce215565cca3b7e2cfc10d27c04a2c94e96b85ae4e',
    'zero A1 n=1 F2 hn': 'ccfeee9ff61292db49b7053c7dcbd878b1a389122f3980e99d8ceede70c5aee0',
    'zero A1 n=1 F3 report': 'c21386184f8472833a03eb32777bd78e81cb81a8f59c970b5fe1e78d1a0f93a7',
    'zero A1 n=1 F3 hn': 'ccfeee9ff61292db49b7053c7dcbd878b1a389122f3980e99d8ceede70c5aee0',
    'zero A2 n=1 F2 report': '5e3d0622b14e24fcaec748ba37dbd987046298104f096b4384d1e272015f2f59',
    'zero A2 n=1 F2 hn': 'fa61e56a53247d3a4574c03865616c09ce181ad68ae1eb07eaf46f4e64ca8b99',
    'zero A2 n=1 F3 report': 'f7fdd489935265b54f2e418bb349b76be42e943e314d20d4b4a593e7d0b432d5',
    'zero A2 n=1 F3 hn': 'fa61e56a53247d3a4574c03865616c09ce181ad68ae1eb07eaf46f4e64ca8b99',
    'zero A1 n=2 F2 report': 'ef2db669e87bda0da09b8a5d0f0d1e7c8f823d77b627f872be063f5455c6bc2f',
    'zero A1 n=2 F2 hn': '6d7bbeb690417387333f4c6841d1f5a9f1e07487bb6d68ae5f550fd162219367',
    'zero A1 n=2 F5 report': 'de9552c509dcfb7c2bf84396817d30e42481ef80c6908eab18bce666a8c793d9',
    'zero A1 n=2 F5 hn': '6d7bbeb690417387333f4c6841d1f5a9f1e07487bb6d68ae5f550fd162219367',
    'orbit A1 n=2 F3 report': '5691f5694331f2ca3d934268e2a7cd6910012d80934671b2028b2854985c883c',
    'orbit A1 n=2 F3 hn': '2ed0c0e13a83a7f1c9e7912761fb530e54ea53005046e5b2af18e1ae14213343',
    'orbit A1 n=2 F5 report': '33ff4bdfa77a0406ea922f510aa40a39439712f83c8099369b9702776d9caa22',
    'orbit A1 n=2 F5 hn': '2ed0c0e13a83a7f1c9e7912761fb530e54ea53005046e5b2af18e1ae14213343',
    'orbit A2 n=2 F2 report': '843e210a1f836a44b8f3e778359ede6672cfb553d5197fcaf2e1de260337bf4f',
    'orbit A2 n=2 F2 hn': 'd75b9cba95f5c840071c99ff97e278046229fe9c5cb89c8d392bf062ecf57351',
}


def _main(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _modules(tmp: Path):
    """(label, type label, n, representation document) per module."""
    out = []
    for k, (label, type_label, n, rep) in enumerate(build_corpus(12)):
        out.append((f"corpus {k} {label}", type_label, n, rep_to_doc(rep, n=n)))
    for type_label, n, v, p in ZERO_ARROW:
        rs = build_root_system(DynkinType.parse(type_label))
        rep = FramedRep(framed_quiver(rs), PrimeField(p), DimVector(1, v), {})
        out.append((f"zero {type_label} n={n} F{p}", type_label, n, rep_to_doc(rep, n=n)))
    for type_label, p in ORBITS:
        path = tmp / f"orbit_{type_label}_F{p}.json"
        _main("rep", "orbit-sum", "--type", type_label, "--points", ORBIT_POINTS,
              "--field", f"F{p}", "--out", str(path))
        out.append((f"orbit {type_label} n=2 F{p}", type_label, 2, json.loads(path.read_text())))
    return out


def _theta_docs(tmp: Path, type_label: str, n: int):
    """Paths of the theta_J documents of every J containing 0, in subset order."""
    rank = DynkinType.parse(type_label).rank
    paths = []
    for k in range(rank + 1):
        for K in itertools.combinations(range(1, rank + 1), k):
            J = ",".join(str(v) for v in (0,) + K)
            path = tmp / f"theta_{type_label}_{n}_{J}.json"
            if not path.exists():
                _main("theta", "craw-wye", "--type", type_label, "-n", str(n), "--J", J,
                      "--out", str(path))
            paths.append(path)
    return paths


def outputs(tmp: Path) -> dict:
    got = {}
    for k, (label, type_label, n, doc) in enumerate(_modules(tmp)):
        rep_path = tmp / f"rep_{k}.json"
        rep_path.write_text(json.dumps(doc))
        thetas = _theta_docs(tmp, type_label, n)
        for cmd in ("report", "hn"):
            got[f"{label} {cmd}"] = _sha("".join(
                _main("stab", cmd, "--rep", str(rep_path), "--theta", str(theta))
                for theta in thetas
            ))
    return got


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden_stab"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_are_pinned(actual, case):
    assert actual[case] == GOLDEN[case]


def test_every_case_is_pinned(actual):
    assert sorted(actual) == sorted(GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, value in outputs(Path(tmp)).items():
            print(f"    {case!r}: {value!r},")
