"""Byte-identity of CLI outputs on the root-system and McKay sides.

Pins the sha256 of the stdout, SVG and TSV of default-plane slices, of
`walls build`, and of `cone check` for every Craw-Ishii theta_J against
every chamber C_K (open and closed).  The hashes were recorded before the
integer sign kernel replaced the Fraction pairings, so a change anywhere
in sign vectors, cone tests, arrangements or rendering shows up here.
The slices on the two explicit planes of the chambers benchmark and the
``--label`` slice were recorded before slice cells were built and signed
from integer points and lines.

It also pins the `mckay verify` stdout of cyclic:13..32 and bd:8..30
against their designated types, beyond the groups that
``test_mckay_oracle.py`` compares with the float path.  Those hashes were
recorded while the group was still enumerated in floats, before the F_q
enumeration replaced it.

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
from quiverstab.mckay import GroupSpec

SLICES = [("A1", 1), ("A1", 6), ("A1", 12), ("A2", 1), ("A2", 3), ("A2", 8),
          ("A3", 2), ("A3", 3), ("D4", 1), ("D4", 2), ("E6", 1)]
# slices with an explicit --plane (the planes of the chambers benchmark) or --label
OPTION_SLICES = {
    "slice A3 n=2 plane": ("A3", 2, "--plane", "base=1,0,0,0;d1=-3,2,0,1;d2=-3,0,2,1;window=-1,2,-1,2"),
    "slice D4 n=1 plane": ("D4", 1, "--plane", "base=1,0,0,0,0;d1=-7,2,1,1,1;d2=-7,1,1,1,2;window=-1,2,-1,2"),
    "slice A2 n=3 labels": ("A2", 3, "--label", "C+:C:1,2", "--label", "C1:C:1",
                            "--label", "s2:sigma:2", "--label", "F:F:"),
}
BUILDS = [("A2", 3), ("A3", 2), ("D4", 2), ("E6", 1), ("E8", 2), ("A119", 1), ("E8", 20)]
CONE_CHECKS = [("A2", 3, 3), ("A3", 2, 4), ("D4", 2, 5)]  # (type, n, vertex count)
MCKAY = [f"cyclic:{m}" for m in range(13, 33)] + [f"bd:{m}" for m in range(8, 31)]

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
    "slice A3 n=2 plane": {
        "stdout": "0af74deaea5c8479bd73ecd669aaf8f16a71fe0e7a78a392ea99f010f8c420e1",
        "svg": "a66244631a5da90ca811d7bac2fb2742a3394d85f7f3d19ba042fea80b7f7d5e",
        "tsv": "d52aaae09661fff4c44f41da9bb11bb8731a41a4c6b6e08495b6a9565a5d7484",
    },
    "slice D4 n=1 plane": {
        "stdout": "09c31c9e6d067d75325e79b25d1296198f553972646a941d6a01fad673164ff1",
        "svg": "7eb2ed7bdad4bffb747c3a69b1c064ff7b4d924312199282f6e23951ec5cca41",
        "tsv": "7c2e8db5c0157ccaa0ed8b97d1e508e74057ada2bc8280173054c62ebf081d73",
    },
    "slice A2 n=3 labels": {
        "stdout": "0cc745f176ed1bcac7a56ed79a78d8dfe8cb29112677293a675dd31f358b7470",
        "svg": "8711429d1b0bb37c8101d306fc755d7ab3943bcaec197a5efacca6cc0a703b16",
        "tsv": "25025daadab7f113df50bb04a3281604967dbdff5d96da3a7116672d5d4a054c",
    },
    "build A2 n=3": "309871379052818e0dcece647137ddccdf5250320c5693643b1384f1e74f5da4",
    "build A3 n=2": "5be4e2c8597fd3b0c964e2c9212717a6a12b6cd330099bc1717d0c0235917a7a",
    "build D4 n=2": "42bcbf9d49d4316328a2ae39ec551ce002684aa0837fe73b7faec197ab0e7fd3",
    "build E6 n=1": "671530328da6b5d2b97e4c4e0347ab6e90e8dff20c119c1b1f0f764e391871c6",
    "build E8 n=2": "22560d09770873969316e6b9219be2070f78b0c7f7766fd4c313670dec02d2ae",
    "build A119 n=1": "962238fad83ab3daf4887de0e1cf55db88bb314b4efba7b713ef29e071c08e06",
    "build E8 n=20": "40471238c8b65b1bd467f0b073903d7f9cb8982ee7472900e79cf489ee07e2e2",
    "cone A2 n=3": "bc284bb18a1f204bc840b5ab54341cd2b5f89ec1378eba6179e2ef39ebfb0d41",
    "cone A3 n=2": "6c6b1b0bd3278461c7633e4ac40ac890c6c78b93bb4cc0d97058795d33cfe353",
    "cone D4 n=2": "34bf36ceba57462b5ab7ecf34e8d021d5cace53710149a746561d8fcbe0af8b2",
    "mckay cyclic:13": "9b2adc8f6f923c411a5ab5ad7adc52f1203eeac6cb575fa5ac83879d1c84c80b",
    "mckay cyclic:14": "1b0738b6aff1c2c3565085bb8eb5121bf907579a75b02bd80aa6d5fb8b74b048",
    "mckay cyclic:15": "28c15997fda3a0b83efb1336c6073ff9a9095cf21b3e4ece183cff00719afb14",
    "mckay cyclic:16": "2fd09bebbc5746c99cba40297cff57b7cb39909a9d5f4bb7cd1f872e3e96ac14",
    "mckay cyclic:17": "657ea96f600ea4db638e796964ad6b049c452e3fa39d4192fece4fee27e62f32",
    "mckay cyclic:18": "0a9c709d5c44620d26b55e86e216ca6a34b8fc91d953c946cd97e4104256ab28",
    "mckay cyclic:19": "dcf6cd6d043c5400d6d2cc045340ef9db68205e7a47d46ae8969cc85239c96ae",
    "mckay cyclic:20": "b72bb8d15efb33262ffb639def3c5bb19fa79fd3640901cafa8fe3503d4c511b",
    "mckay cyclic:21": "55a060771ce51d6ca42457f8a277b28fec6044416b61b56e796888f2b7e94c39",
    "mckay cyclic:22": "661dd960273d30dac36f9899a7e2de834d6eba88902113b1bd5b8255901a6d4c",
    "mckay cyclic:23": "c24b31cf1320b97cd9fc50d20a047fa0393455f4862af7e47134861a02e9e437",
    "mckay cyclic:24": "537ce1fe398cbc4fbbfdb3881a483551c71b940b5f7cda863dc9b70e4838357b",
    "mckay cyclic:25": "40bc47f0518777db53b41254a994c5c0cc6da18417d1865c5f8bfddf4f107051",
    "mckay cyclic:26": "e91b9c42ee1e3f70aaa64d0e33e005ccdd98ebf660b0e7bf3926c905c6d1a795",
    "mckay cyclic:27": "b8fa36a18c2b583d7dc02b0c0e0feaa01e86e6062d78c7fe4f21887842d5dbdc",
    "mckay cyclic:28": "efa1b4e7719500f0389de3abd1437b545548196380d2752304121f9bc6f0c301",
    "mckay cyclic:29": "72a586d0d2bfef11b880445774d5b7dfdf9f8e1f12f621faf91e57acfa51eeff",
    "mckay cyclic:30": "eff779b0990c4a0fe01da6f6a9270bc9a52f47c16775269685d729196eb268c0",
    "mckay cyclic:31": "6ce5fd625521277dc14327a585ebf37e341d2aa83b5255d53e662e58e941d3e1",
    "mckay cyclic:32": "ccea01cb8b4f1b8a52d89fbce533bc7329fcfc2230e636850e6177d7f37493f5",
    "mckay bd:8": "5e028069137166f21c6fdf0584fe0d7eae716fb04d9c155963bc8c3d72e183d8",
    "mckay bd:9": "c49456fbe3be2c2c6cab2b93b88579b169826820c27a9947fa240308fd81481c",
    "mckay bd:10": "fd2474dc45a6354860e19bea81c891ab998827ef9e21303ec7678512140f638a",
    "mckay bd:11": "7c35a83c636d2a211e41a79d6b503c6e294be655b2f204175975004bde59a142",
    "mckay bd:12": "05b6d13bcf6604a187e84d3d3f3fdcfd9a128892dbc886edbfc33652424b2520",
    "mckay bd:13": "fd1257e0efcb62960688e441d4d979cbcde88a6e8273cc123786cb6f64a3a462",
    "mckay bd:14": "812ef4e16717019dab3fc1708cd697265eaf3edc819a6629a2792246047bfc0d",
    "mckay bd:15": "f5258a6c1b9a34df285cb7417855391f4bb0286189cc7ef1eeea5063fa24cb86",
    "mckay bd:16": "5344cbe2f9ee52a5a3803d242a75584fcf01dc684d74045c8f9a603bfe1bfce1",
    "mckay bd:17": "4b1a73fe540bf6814258ac615c5f6f2a00036246b727d060f337401b2440bbd1",
    "mckay bd:18": "8bbf59b1172e762a3895f545b678e8a9df4f03a729cc30059c8fefaf97a170b3",
    "mckay bd:19": "2408037ce2509c5de949442716d559318065daa6780ce6fe05c35d210d3eae41",
    "mckay bd:20": "98e8967eae2b780d357a04dd16f47670c3f20ef5bfd58e9540d1e71a9df20a73",
    "mckay bd:21": "341b15e85308e87c893a46ef135b2ac262a0655d7a2a9f2ed1f760810e4f3646",
    "mckay bd:22": "6a6a891186bd94098fa22937bd88d7ee2008c6893b8cf2cfdff4cca2de2682c4",
    "mckay bd:23": "3077dcb8ce4c7788cf34244e72b769ab27d4fab977ba355d67986e503264178c",
    "mckay bd:24": "fd344036dd5fe9d16d3ec5c419d6047ffc39047c12c0858a56424dad2bbe1465",
    "mckay bd:25": "947f30edaf1e2bef4d01a326e9f2e2da60bc37f0c63440ca1fe3d82a48b819a5",
    "mckay bd:26": "c36c053eed8afca735cd3adebd74eaf58f08d7e3546338bdb3ba961cb0c807aa",
    "mckay bd:27": "a4eb7909cc503ae7078978d570327e7a21897a52b64820ee00e2c4a5c6dfbbcf",
    "mckay bd:28": "b53173d7a349603a487d7c9038d97eff5e7343e5cd82364f38a312c232ab1d0f",
    "mckay bd:29": "0e3410d247122c03fc08ea84e5e3921aff6554f30213474f02cffb45c03e1cac",
    "mckay bd:30": "1eb422c1d1fe0e731edf79b3a3bdb71495139ed70f5c5e902e1b1263e7e09af1",
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


def _slice(tmp: Path, label: str, n: int, *options) -> dict:
    svg, tsv = tmp / f"{label}_{n}_{len(options)}.svg", tmp / f"{label}_{n}_{len(options)}.tsv"
    stdout = _main("walls", "slice", "--type", label, "-n", str(n), *options,
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
    for case, (label, n, *options) in OPTION_SLICES.items():
        got[case] = _slice(tmp, label, n, *options)
    for label, n in BUILDS:
        got[f"build {label} n={n}"] = _sha(_main("walls", "build", "--type", label, "-n", str(n)))
    for label, n, n_vertices in CONE_CHECKS:
        got[f"cone {label} n={n}"] = _cone_checks(tmp, label, n, n_vertices)
    for group in MCKAY:
        dynkin = GroupSpec.parse(group).designated_dynkin().label()
        got[f"mckay {group}"] = _sha(_main("mckay", "verify", group, dynkin))
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
