"""Group enumeration, character tables, and the McKay graph checks."""

import gc
import random

import pytest

from quiverstab import DynkinType, build_root_system, mckay
from quiverstab.errors import GroupTooLarge, InvalidRank, NoIsomorphism
from quiverstab.mckay import (
    MAX_GROUP_ORDER,
    GroupSpec,
    _mat_mul,
    build_mckay,
    projective_mckay,
    verify_correspondence,
)

ALL_SPECS = (
    [GroupSpec("cyclic", m) for m in range(2, 9)]
    + [GroupSpec("binary_dihedral", m) for m in range(2, 6)]
    + [
        GroupSpec("binary_tetrahedral"),
        GroupSpec("binary_octahedral"),
        GroupSpec("binary_icosahedral"),
    ]
)


@pytest.fixture(scope="module")
def mckay_cache():
    return {spec: build_mckay(spec) for spec in ALL_SPECS}


def test_orders_and_dimension_sums(mckay_cache):
    for spec, data in mckay_cache.items():
        assert data.order() == spec.order()
        assert sum(d * d for d in data.irrep_dims) == data.order()
        assert data.irrep_dims[0] == 1  # trivial representation sits at index 0
        assert all(abs(v - 1) < 1e-6 for row in data.characters for v in row[:1])


def test_adjacency_symmetric_zero_diagonal(mckay_cache):
    for spec, data in mckay_cache.items():
        r = len(data.irrep_dims)
        for i in range(r):
            assert data.adjacency[i][i] == 0
            for j in range(r):
                assert data.adjacency[i][j] == data.adjacency[j][i]


def test_cyclic_two_double_bond(mckay_cache):
    data = mckay_cache[GroupSpec("cyclic", 2)]
    assert data.irrep_dims == (1, 1)
    assert data.adjacency == ((0, 2), (2, 0))


def test_quaternion_group_is_affine_d4(mckay_cache):
    data = mckay_cache[GroupSpec("binary_dihedral", 2)]
    assert sorted(data.irrep_dims) == [1, 1, 1, 1, 2]
    rs = build_root_system(DynkinType("D", 4))
    report = verify_correspondence(data, rs)
    assert report.adjacency_ok and report.dims_ok and report.sum_squares_ok


def test_binary_icosahedral(mckay_cache):
    data = mckay_cache[GroupSpec("binary_icosahedral")]
    assert data.order() == 120
    assert len(data.irrep_dims) == 9
    rs = build_root_system(DynkinType("E", 8))
    report = verify_correspondence(data, rs)
    assert report.adjacency_ok and report.dims_ok and report.sum_squares_ok


def test_every_family_matches_its_type(mckay_cache):
    for spec, data in mckay_cache.items():
        rs = build_root_system(spec.designated_dynkin())
        report = verify_correspondence(data, rs)
        assert report.adjacency_ok, spec.label()
        assert report.dims_ok, spec.label()
        assert report.sum_squares_ok, spec.label()
        assert report.matching[0] == 0
        assert data.irrep_dims[0] == rs.delta[report.matching[0]] == 1


def test_elements_closed_under_product(mckay_cache):
    rng = random.Random(5)
    for spec in (GroupSpec("binary_tetrahedral"), GroupSpec("cyclic", 5)):
        data = mckay_cache[spec]
        keys = {
            tuple(
                (round(v.real, 6), round(v.imag, 6)) for row in g for v in row
            )
            for g in data.elements
        }
        for _ in range(40):
            x = data.elements[rng.randrange(len(data.elements))]
            y = data.elements[rng.randrange(len(data.elements))]
            z = _mat_mul(x, y)
            key = tuple(
                (round(v.real, 6), round(v.imag, 6)) for row in z for v in row
            )
            assert key in keys


def test_character_orthogonality(mckay_cache):
    for spec in (GroupSpec("binary_octahedral"), GroupSpec("binary_dihedral", 3)):
        data = mckay_cache[spec]
        sizes = [len(c) for c in data.conjugacy_classes]
        r = len(sizes)
        for i in range(r):
            for j in range(r):
                s = sum(
                    sizes[k]
                    * data.characters[k][i]
                    * data.characters[k][j].conjugate()
                    for k in range(r)
                )
                expected = data.order() if i == j else 0
                assert abs(s - expected) < 1e-6


def test_vertex_count_mismatch_raises(mckay_cache):
    data = mckay_cache[GroupSpec("cyclic", 2)]
    rs = build_root_system(DynkinType("A", 2))
    with pytest.raises(NoIsomorphism):
        verify_correspondence(data, rs)


def test_group_spec_validation():
    with pytest.raises(InvalidRank):
        GroupSpec("cyclic", 1)
    with pytest.raises(InvalidRank):
        GroupSpec("binary_dihedral", 1)
    with pytest.raises(InvalidRank):
        GroupSpec("icosahedral")
    assert GroupSpec.parse("2i").family == "binary_icosahedral"
    assert GroupSpec.parse("cyclic:6").m == 6
    assert GroupSpec.parse("bd:3").order() == 12


@pytest.mark.parametrize(
    "family", ["binary_tetrahedral", "binary_octahedral", "binary_icosahedral"]
)
def test_polyhedral_group_spec_refuses_an_m(family):
    # its label, order and type do not read m, so a nonzero m would give a
    # second spec of the same group that neither equals nor hashes like it
    with pytest.raises(InvalidRank):
        GroupSpec(family, 5)
    assert GroupSpec(family, 0) == GroupSpec(family)


@pytest.mark.parametrize(
    "text,family,m,order,dynkin",
    [
        ("cyclic:2", "cyclic", 2, 2, "A1"),
        ("CYCLIC:7", "cyclic", 7, 7, "A6"),
        ("bd:2", "binary_dihedral", 2, 8, "D4"),
        (" Bd:5 ", "binary_dihedral", 5, 20, "D7"),
        ("2T", "binary_tetrahedral", 0, 24, "E6"),
        ("2t", "binary_tetrahedral", 0, 24, "E6"),
        ("2O", "binary_octahedral", 0, 48, "E7"),
        ("2o", "binary_octahedral", 0, 48, "E7"),
        ("2I", "binary_icosahedral", 0, 120, "E8"),
        ("2i", "binary_icosahedral", 0, 120, "E8"),
    ],
)
def test_group_spec_facts_and_label_round_trip(text, family, m, order, dynkin):
    spec = GroupSpec.parse(text)
    assert spec == GroupSpec(family, m)
    assert GroupSpec.parse(spec.label()) == spec
    assert spec.order() == order
    assert spec.designated_dynkin().label() == dynkin


def test_group_order_cap():
    assert GroupSpec("binary_icosahedral").order() == MAX_GROUP_ORDER
    assert GroupSpec("cyclic", MAX_GROUP_ORDER).order() == MAX_GROUP_ORDER
    assert GroupSpec("binary_dihedral", MAX_GROUP_ORDER // 4).order() == MAX_GROUP_ORDER
    with pytest.raises(GroupTooLarge):
        GroupSpec("cyclic", MAX_GROUP_ORDER + 1)
    with pytest.raises(GroupTooLarge):
        GroupSpec.parse(f"bd:{MAX_GROUP_ORDER // 4 + 1}")


@pytest.mark.parametrize(
    "dynkin,expected",
    [
        (("A", 1), (0, 1)),
        (("A", 2), None),
        (("A", 3), (0, 2)),
        (("A", 4), None),
        (("A", 5), (0, 3)),
        (("D", 4), (0, 2)),
        (("D", 5), (0, 3)),
        (("E", 6), (0, 4)),
        (("E", 7), (0, 4)),
        (("E", 8), (0, 4)),
    ],
)
def test_projective_mckay(dynkin, expected):
    assert projective_mckay(DynkinType(*dynkin)) == expected


def test_projective_mckay_r_is_trivalent():
    for family, rank in [("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        rs = build_root_system(DynkinType(family, rank))
        _, r = projective_mckay(rs.dynkin)
        degree = sum(1 for j in range(1, rank + 1) if rs.finite_cartan[r - 1][j - 1] == -1)
        assert degree == 3


def _from_mckay(obj):
    code = next(
        (getattr(obj, attr) for attr in ("__code__", "gi_code", "f_code") if hasattr(obj, attr)),
        None,
    )
    return code is not None and code.co_filename == mckay.__file__


def test_verify_leaves_no_cyclic_garbage(mckay_cache):
    # the isomorphism search must free itself by reference counting alone
    data = mckay_cache[GroupSpec("binary_icosahedral")]
    rs = build_root_system(DynkinType("E", 8))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert verify_correspondence(data, rs).adjacency_ok
        gc.collect()
        leaked = [obj for obj in gc.garbage if _from_mckay(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
