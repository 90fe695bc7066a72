"""Root system data against the classical tables and structural invariants."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import quiverstab
import reference_rootsys
from quiverstab import DynkinType, build_root_system, make_theta
from quiverstab.errors import InvalidRank, MismatchedRootSystem
from quiverstab.mckay import GroupSpec
from quiverstab.rootsys import MAX_GROUP_ORDER

# (family, rank) -> (positive root count, delta in Bourbaki order with vertex 0 first)
CLASSICAL = {
    ("A", 1): (1, (1, 1)),
    ("A", 2): (3, (1, 1, 1)),
    ("A", 3): (6, (1, 1, 1, 1)),
    ("A", 4): (10, (1, 1, 1, 1, 1)),
    ("D", 4): (12, (1, 1, 2, 1, 1)),
    ("D", 5): (20, (1, 1, 2, 2, 1, 1)),
    ("E", 6): (36, (1, 1, 2, 2, 3, 2, 1)),
    ("E", 7): (63, (1, 2, 2, 3, 4, 3, 2, 1)),
    ("E", 8): (120, (1, 2, 3, 4, 6, 5, 4, 3, 2)),
}


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL))
def test_tables(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    count, delta = CLASSICAL[(family, rank)]
    assert len(rs.positive_roots) == count
    assert rs.delta == delta
    assert rs.h == sum(delta)


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL))
def test_affine_cartan_invariants(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    n = len(rs.vertices)
    c = rs.affine_cartan
    for i in range(n):
        assert c[i][i] == 2
        for j in range(n):
            assert c[i][j] == c[j][i]
            if i != j:
                assert c[i][j] in (0, -1, -2)
                if c[i][j] == -2:
                    assert (family, rank) == ("A", 1)
    # exact kernel relation and normalization
    assert rs.delta[0] == 1
    for i in range(n):
        assert sum(c[i][j] * rs.delta[j] for j in range(n)) == 0


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL))
def test_positive_roots_closed_under_reflections(family, rank):
    rs = build_root_system(DynkinType(family, rank))
    roots = set(rs.positive_roots)
    rank_ = rs.rank
    simples = {tuple(1 if j == i else 0 for j in range(rank_)) for i in range(rank_)}
    assert simples <= roots
    for beta in roots:
        assert all(c >= 0 for c in beta)
        pairing = [
            sum(rs.finite_cartan[i][j] * beta[j] for j in range(rank_))
            for i in range(rank_)
        ]
        for i in range(rank_):
            refl = list(beta)
            refl[i] -= pairing[i]
            refl = tuple(refl)
            # a simple reflection sends a positive root to +- a positive root
            assert refl in roots or tuple(-x for x in refl) in roots


ORACLE_TYPES = (
    [("A", r) for r in range(1, 21)] + [("D", r) for r in range(4, 21)]
    + [("E", r) for r in (6, 7, 8)]
)


@pytest.mark.parametrize("family,rank", ORACLE_TYPES)
def test_matches_the_reference_construction(family, rank):
    # all reflections with dense pairings, and delta from a Fraction nullspace
    rs = build_root_system(DynkinType(family, rank))
    assert rs.positive_roots == reference_rootsys.positive_roots(rs.finite_cartan, rank)
    assert rs.delta == reference_rootsys.delta(rs.affine_cartan)


# positive roots n(n+1)/2 for A_n and n(n-1) for D_n; h is the Coxeter number
@pytest.mark.parametrize("label,count,h", [("A119", 7140, 120), ("D32", 992, 62)])
def test_largest_types_have_every_positive_root(label, count, h):
    rs = build_root_system(DynkinType.parse(label))
    assert len(rs.positive_roots) == count
    assert max(rs.positive_roots, key=sum) == rs.delta[1:]
    assert rs.h == h


def test_largest_type_builds_in_a_fresh_process_within_seconds():
    src = Path(quiverstab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "quiverstab.cli", "theta", "craw-wye", "--type", "A119",
            "-n", "1", "--J", "0"]
    start = time.monotonic()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    assert time.monotonic() - start < 5.0
    assert done.returncode == 0 and done.stdout.splitlines()[-1] == "inf -120"


def test_affine_extension_shapes():
    a1 = build_root_system(DynkinType("A", 1))
    assert a1.affine_cartan[0][1] == -2
    a3 = build_root_system(DynkinType("A", 3))
    assert a3.affine_cartan[0][1] == -1 and a3.affine_cartan[0][3] == -1
    assert a3.affine_cartan[0][2] == 0
    d4 = build_root_system(DynkinType("D", 4))
    # the extending vertex joins the central vertex, giving the 4-valent star
    assert [d4.affine_cartan[0][j] for j in range(1, 5)] == [0, -1, 0, 0]
    assert sum(1 for j in d4.vertices if j != 2 and d4.affine_cartan[2][j] == -1) == 4


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("X", 2), ("A", 120), ("D", 33)],
)
def test_invalid_ranks(family, rank):
    with pytest.raises(InvalidRank):
        DynkinType(family, rank)


def test_rank_cap_is_the_mckay_group_order_cap():
    # A_n pairs with the cyclic group of order n + 1, D_n with the binary
    # dihedral group of order 4(n - 2), so the largest groups give A119 and D32
    largest = [GroupSpec("cyclic", MAX_GROUP_ORDER), GroupSpec("binary_dihedral", 30)]
    assert [spec.designated_dynkin() for spec in largest] == [
        DynkinType("A", 119), DynkinType("D", 32)
    ]


def test_parse_labels():
    assert DynkinType.parse("D4") == DynkinType("D", 4)
    assert DynkinType.parse("e6") == DynkinType("E", 6)
    with pytest.raises(InvalidRank):
        DynkinType.parse("Q")


def test_pair_examples(rs_a2):
    theta = make_theta(rs_a2, (3, 3, 3), (-7, 9, 1))
    assert theta.value(rs_a2.delta) == 3
    assert theta.value((0, 0, 0)) == 0
    for i, root in ((1, (1, 0)), (2, (0, 1))):
        assert theta.value((0, *root)) == theta.entries[i]


def test_pair_mismatch(rs_a1, rs_a2):
    theta = make_theta(rs_a1, (1, 1), (1, 1))
    for coeffs in (rs_a2.delta, (1,)):
        with pytest.raises(MismatchedRootSystem):
            theta.value(coeffs)


@given(
    c1=st.integers(-50, 50),
    c2=st.integers(-50, 50),
    coeffs=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    other=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_pair_is_bilinear(c1, c2, coeffs, other):
    rs = build_root_system(DynkinType("A", 2))
    theta = make_theta(rs, rs.delta, (Fraction(3, 7), Fraction(-2), Fraction(5, 3)))
    combo = tuple(c1 * a + c2 * b for a, b in zip(coeffs, other))
    assert theta.value(combo) == c1 * theta.value(coeffs) + c2 * theta.value(other)


def test_pair_linear_in_theta(rs_a3):
    rng = random.Random(11)
    for _ in range(25):
        e1 = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in rs_a3.vertices]
        e2 = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in rs_a3.vertices]
        beta = tuple(rng.randint(-4, 4) for _ in rs_a3.vertices)
        t1 = make_theta(rs_a3, rs_a3.delta, e1)
        t2 = make_theta(rs_a3, rs_a3.delta, e2)
        t_sum = make_theta(rs_a3, rs_a3.delta, [a + b for a, b in zip(e1, e2)])
        assert t_sum.value(beta) == t1.value(beta) + t2.value(beta)
