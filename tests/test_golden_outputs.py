"""Byte-identity of CLI outputs on the root-system side.

Pins the sha256 of the stdout, SVG and TSV of default-plane slices, of
`walls build`, and of `cone check` for every Craw-Ishii theta_J against
every chamber C_K (open and closed).  The hashes were recorded before the
integer sign kernel replaced the Fraction pairings, so a change anywhere
in sign vectors, cone tests, arrangements or rendering shows up here.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quiverstab.cli import main

SLICES = [("A1", 1), ("A1", 6), ("A1", 12), ("A2", 1), ("A2", 3), ("A2", 8),
          ("A3", 2), ("A3", 3), ("D4", 1), ("D4", 2), ("E6", 1)]
BUILDS = [("A2", 3), ("A3", 2), ("D4", 2), ("E6", 1), ("E8", 2)]
CONE_CHECKS = [("A2", 3, 3), ("A3", 2, 4), ("D4", 2, 5)]  # (type, n, vertex count)

GOLDEN = {
    "slice A1 n=1": {
        "stdout": "303549261ea7033a70e242871796c3b7927a6fb3994489d6dfcf5de3ebbf0b0b",
        "svg": "4aa6bf39eec62f352d37aa1f2ca06a65ccf28052a46ea78153285c5374630b43",
        "tsv": "936866e8e4fd3ab42b8f2a4b22a0056d26bd71e93b0ad169fd6610593fbc757c",
    },
    "slice A1 n=6": {
        "stdout": "2309f9e3f9ac1217d1e4a9332d6d45857f7c82e5dfaf706752956861263f8762",
        "svg": "445fda93d444e5bcaa5c02ce8fff371a5b569756215a6fe9545d516c6e126bc5",
        "tsv": "a2a7a115dda11c4beb417361eb98fb86f765b4c85dfcb90cec1263e489244324",
    },
    "slice A1 n=12": {
        "stdout": "b407babf5849353edb191ab2c1199993082e32ceae836df4e8ff6aa535b07727",
        "svg": "cde8d94190eddcc17d68aee064599ee15fe9d37e644d8755666a4d6a78572458",
        "tsv": "302d7b69f804613c2f32234124a0cfbeb22f7fe46c91eb8360a9b27ca17e19d5",
    },
    "slice A2 n=1": {
        "stdout": "a50c6cac9323c53f08a0b642dd05dfcb43641659d160a419b1e28be8354d45a1",
        "svg": "cf4d5f28729a9af51832a7d6604d0e0c1ba15fa792494fa9f7c51f7925f42a20",
        "tsv": "65e1442592a5aa148d2af4384c3dfc4103b3ec84fce26617129a38669fb71c40",
    },
    "slice A2 n=3": {
        "stdout": "ad497f679907fd3bef799c93915d2ba78b9504ca0721126eea84b839f5e49969",
        "svg": "a4f0b5c7c848824ab58175682c6657e03aeb61717bf3d3309659183eb267926a",
        "tsv": "2964094dcfd8968062d767e32cbd2921f807ed2aef05080a7b4d697d9bcc613d",
    },
    "slice A2 n=8": {
        "stdout": "f053fbf2f4969f8c29bc168e7fd400f92f17169d81a10f0934d53abd258e3ea5",
        "svg": "2bfe1a64b0215ad4b660f85c85ed1ae1d7665082b74231cd393815ed329260b4",
        "tsv": "53782eac40aafdd3631a4ab83bc1492530be7f701e715eabb31805189a60f53e",
    },
    "slice A3 n=2": {
        "stdout": "e902b04f02a50de949adfd7fef1c68530f9224c709e286fc7ce8d44c37987057",
        "svg": "2ea2c50275a9c9e61ce3a5daaf89f4d31f72fcdfc28b15ff1c8d3375d6ab524e",
        "tsv": "d8b1a920b059f3572a519b58c456780285bcda6564581a4d6774f1a2a158c689",
    },
    "slice A3 n=3": {
        "stdout": "673c8f97704fe8e8431e2d9f9626845749317605cba6e639022a9577fecb7b7c",
        "svg": "408558c8db5f42aaa02097eea76c05327ec7ebb4473d03a6b789a4cee2013acf",
        "tsv": "a975a040e596321e7c9af61891add71d31be4bd9bed71d0b24bfa527f6843811",
    },
    "slice D4 n=1": {
        "stdout": "81c968b7136e1ff44ecf96f6ad8c3d532ce1d736a730e7a885e4ea3b3695d14c",
        "svg": "59ea50f4618a41b18fa7bb9a03fb1e1e4e536a1bf2b091c0df273f9025169280",
        "tsv": "f296eb872c20a35a4861765ac929e119f0f652e39323ada06bcedfe4a7a1603c",
    },
    "slice D4 n=2": {
        "stdout": "d34015b17f2ecb63c9a2293d4bb838ce39b41150cf5d708d8e5ec65da7475044",
        "svg": "e99af17c1275e112c0235f8cb975ee913d0fb2bfaee4def450e05dd69f26146d",
        "tsv": "5f0f9e575462989065d920a5e18f6dc6ce13bda3ab59de0d746414c7c8ce52bd",
    },
    "slice E6 n=1": {
        "stdout": "555c1dc75ad0c0716ba1036a8789ab468d4ba0298e4928b8977d22fb16d2f9a6",
        "svg": "8f9aa2f2b9a244d792c49a258ad761a01bd6feb34356eb26435d216ddb2714e0",
        "tsv": "4c45172d18f13f4d6e48ca46eecb48794fa41b99d161f00eb4c65365b864c079",
    },
    "build A2 n=3": "309871379052818e0dcece647137ddccdf5250320c5693643b1384f1e74f5da4",
    "build A3 n=2": "5be4e2c8597fd3b0c964e2c9212717a6a12b6cd330099bc1717d0c0235917a7a",
    "build D4 n=2": "42bcbf9d49d4316328a2ae39ec551ce002684aa0837fe73b7faec197ab0e7fd3",
    "build E6 n=1": "671530328da6b5d2b97e4c4e0347ab6e90e8dff20c119c1b1f0f764e391871c6",
    "build E8 n=2": "22560d09770873969316e6b9219be2070f78b0c7f7766fd4c313670dec02d2ae",
    "cone A2 n=3": "bc284bb18a1f204bc840b5ab54341cd2b5f89ec1378eba6179e2ef39ebfb0d41",
    "cone A3 n=2": "6c6b1b0bd3278461c7633e4ac40ac890c6c78b93bb4cc0d97058795d33cfe353",
    "cone D4 n=2": "34bf36ceba57462b5ab7ecf34e8d021d5cace53710149a746561d8fcbe0af8b2",
}


def _main(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _subsets(items):
    return [[x for b, x in enumerate(items) if mask >> b & 1] for mask in range(1 << len(items))]


def _slice(tmp: Path, label: str, n: int) -> dict:
    svg, tsv = tmp / f"{label}_{n}.svg", tmp / f"{label}_{n}.tsv"
    stdout = _main("walls", "slice", "--type", label, "-n", str(n),
                   "--out", str(svg), "--table", str(tsv))
    return {"stdout": _sha(stdout), "svg": _sha(svg.read_text()), "tsv": _sha(tsv.read_text())}


def _cone_checks(tmp: Path, label: str, n: int, n_vertices: int) -> str:
    """One verdict line per (J, K, open/closed), theta_J written by `theta craw-wye`."""
    lines = []
    non_zero = list(range(1, n_vertices))
    for J in _subsets(non_zero):
        J_text = ",".join(str(v) for v in [0] + J)
        doc = tmp / f"theta_{label}_{n}_{J_text}.json"
        _main("theta", "craw-wye", "--type", label, "-n", str(n), "--J", J_text,
              "--out", str(doc))
        for K in _subsets(non_zero):
            K_text = ",".join(str(v) for v in K)
            for closed in ((), ("--closed",)):
                verdict = _main("cone", "check", "--theta", str(doc), "--cone", "C",
                                "--K", K_text, *closed)
                lines.append(f"{J_text}|{K_text}|{bool(closed)}|{verdict.strip()}")
    return _sha("\n".join(lines))


def outputs(tmp: Path) -> dict:
    got = {}
    for label, n in SLICES:
        got[f"slice {label} n={n}"] = _slice(tmp, label, n)
    for label, n in BUILDS:
        got[f"build {label} n={n}"] = _sha(_main("walls", "build", "--type", label, "-n", str(n)))
    for label, n, n_vertices in CONE_CHECKS:
        got[f"cone {label} n={n}"] = _cone_checks(tmp, label, n, n_vertices)
    return got


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_bytes_are_pinned(actual, case):
    assert actual[case] == GOLDEN[case]


def test_every_case_is_pinned(actual):
    assert sorted(actual) == sorted(GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, value in outputs(Path(tmp)).items():
            print(f"    {case!r}: {value!r},")
