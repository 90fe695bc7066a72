"""Identity of submodule lattices: node order, bases, masks and atom count.

Pins, per module, one sha256 over the atom count, then per node (in
lattice order) its per-vertex echelon bases, its dimension key and its
atom bitset.  The modules are the twelve of ``build_corpus``, the
zero-arrow modules that ``test_lattice_oracle.py`` compares with the
reference engine, the two-point orbit modules of ``test_golden_stab.py``,
and the three-point modules of the benchmark: the orbit modules of A1
n=3 over F3 and A2 n=3 over F2, and the gauge-conjugated sum of a
two-point orbit module with the zero module (0, delta).  The hashes were
recorded before the atoms were read off one pass over the line graph, so
a change in atom numbering, node order or masks shows up here even where
`stab report` and `stab hn` print the same bytes.

Regenerate (only when a lattice is meant to change) with
``PYTHONPATH=src python tests/test_golden_lattice.py``.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import _random_gauge, build_corpus

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    gauge_conjugate,
    submodule_lattice,
)
from quiverstab.fieldops import PrimeField

# the zero-arrow modules (1, n delta) of test_lattice_oracle.py, as (type, n, v, p)
ZERO_ARROW = [("A1", 1, (1, 1), 2), ("A1", 1, (1, 1), 3), ("A2", 1, (1, 1, 1), 2),
              ("A2", 1, (1, 1, 1), 3), ("A1", 2, (2, 2), 2), ("A1", 2, (2, 2), 5)]
# orbit modules of the first two or three POINTS, as (type, p); p must not divide the
# group order
TWO_POINTS = [("A1", 3), ("A1", 5), ("A2", 2)]
THREE_POINTS = [("A1", 3), ("A2", 2)]
POINTS = [(1, 0), (0, 1), (1, 1)]

GOLDEN = {
    'corpus 0 orbit': 'e08319015463b8b026afe1a14adf22d066b41d76558c899989cb5841d7c5564b',
    'corpus 1 broken-framing+gauge': '79ec157eb55ef693297be7cee57f0bb74b12a69c96c6a7e491761fc8e7fb5453',
    'corpus 2 framed-plus-unframed': '5a8ffca776ea501dbc4f6b3b4fb9ed829bf32a5e0c4759fe9578b03325a810ac',
    'corpus 3 framed-plus-zero': '8a6f0878c88c08080413e50e757649d0cf381fc8f7d2965fd393d02a3090a025',
    'corpus 4 orbit+gauge': 'e08319015463b8b026afe1a14adf22d066b41d76558c899989cb5841d7c5564b',
    'corpus 5 orbit': '3898bec30af5846403ac7ef5aa6c0c1185b3cdd3a958d006afa90353ea51b829',
    'corpus 6 broken-framing': '2e7b515e4ec2734c375337e636c22dbfb1fe81b9e567205f90cd37e2d5af9ee7',
    'corpus 7 framed-plus-unframed+gauge': '291f33831fb5bc7cd223f27bf7c5bb8ee1f2143348bb0ab4331edea1d1208699',
    'corpus 8 orbit': 'e08319015463b8b026afe1a14adf22d066b41d76558c899989cb5841d7c5564b',
    'corpus 9 orbit': '3898bec30af5846403ac7ef5aa6c0c1185b3cdd3a958d006afa90353ea51b829',
    'corpus 10 orbit+gauge': '01eccc84f80d106a2e909045dce185094718973fdececb93199d73cb2cf60bd5',
    'corpus 11 broken-framing': 'f73ef3fea5b4d1857cb1fe88ead7b89593797494691baae86918da83b28213e5',
    'zero A1 n=1 F2': '476d1092568d1d63f4fdd17428a058171bb4de6637faeca5e1ed5978bbd69be4',
    'zero A1 n=1 F3': '476d1092568d1d63f4fdd17428a058171bb4de6637faeca5e1ed5978bbd69be4',
    'zero A2 n=1 F2': '6b206d233f65c0d06c457ab0edb8d179c6b0a3e894b4d9bb8cc136557d7a4456',
    'zero A2 n=1 F3': '6b206d233f65c0d06c457ab0edb8d179c6b0a3e894b4d9bb8cc136557d7a4456',
    'zero A1 n=2 F2': '250f3e37f8d64e0706d7a75de57fda7d4e8a99ec4f3085a13fe8bedb13ee5060',
    'zero A1 n=2 F5': '4cfafa266d77fd4058ae3bba73d6159d572e07075703f6455233c2d5d797f4f7',
    'orbit A1 n=2 F3': 'b007dca6af0e4806a458017cd053e5550ac2a7c975aba0682f9732432c437ff5',
    'orbit A1 n=2 F5': 'b007dca6af0e4806a458017cd053e5550ac2a7c975aba0682f9732432c437ff5',
    'orbit A2 n=2 F2': '438e73a5b63947815d6936640ad93313a0188e7cecc52a544eda7f834a219be3',
    'orbit A1 n=3 F3': '3e394aa968d8fb8ebd475623fb9f9fbf827d2994c1860900d46455e5482dc672',
    'orbit+zero A1 n=3 F3': 'e2988c9d7fbe67a586960554d973f15635e4bc1a36c199169e1ade373fec6ea8',
    'orbit A2 n=3 F2': '3098b300a69f3d627c71f5182a8929ca65d94f772b5a8bea87740bfa667cddf0',
    'orbit+zero A2 n=3 F2': '764862e9273bde1f63fb76b06aa69709884a239ac4586edada4b678e4d08f8d8',
}


def _rs(type_label):
    return build_root_system(DynkinType.parse(type_label))


def _zero(rs, p, r):
    return FramedRep(framed_quiver(rs), PrimeField(p), DimVector(r, rs.delta), {})


def modules():
    """(label, representation) per pinned module."""
    out = [(f"corpus {k} {label}", rep) for k, (label, _, _, rep) in enumerate(build_corpus(12))]
    for type_label, n, v, p in ZERO_ARROW:
        rs = _rs(type_label)
        out.append((f"zero {type_label} n={n} F{p}",
                    FramedRep(framed_quiver(rs), PrimeField(p), DimVector(1, v), {})))
    for type_label, p in TWO_POINTS:
        out.append((f"orbit {type_label} n=2 F{p}",
                    framed_orbit_sum(_rs(type_label), POINTS[:2], PrimeField(p))))
    rng = random.Random(3)
    for type_label, p in THREE_POINTS:
        rs = _rs(type_label)
        out.append((f"orbit {type_label} n=3 F{p}",
                    framed_orbit_sum(rs, POINTS, PrimeField(p))))
        plus = direct_sum([framed_orbit_sum(rs, POINTS[:2], PrimeField(p)), _zero(rs, p, 0)])
        out.append((f"orbit+zero {type_label} n=3 F{p}",
                    gauge_conjugate(plus, _random_gauge(rng, plus))))
    return out


def lattice_hash(rep) -> str:
    lattice = submodule_lattice(rep)
    h = hashlib.sha256()
    h.update(repr(lattice.masks[-1].bit_length()).encode())
    for node, mask in zip(lattice.nodes, lattice.masks):
        h.update(repr((node.bases, node.dims.key(), mask)).encode())
    return h.hexdigest()


def outputs() -> dict:
    return {label: lattice_hash(rep) for label, rep in modules()}


@pytest.fixture(scope="module")
def actual():
    return outputs()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_lattice_is_pinned(actual, case):
    assert actual[case] == GOLDEN[case]


def test_every_case_is_pinned(actual):
    assert sorted(actual) == sorted(GOLDEN)


if __name__ == "__main__":
    for case, value in outputs().items():
        print(f"    {case!r}: {value!r},")
