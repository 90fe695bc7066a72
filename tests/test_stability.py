"""Stability vectors and the chamber/cone inequality systems."""

from fractions import Fraction

import pytest

from quiverstab import (
    ConeSpec,
    DimVector,
    DynkinType,
    build_root_system,
    cone_constraints,
    cone_membership,
    craw_wye_theta,
    make_theta,
    pair_dim,
)
from quiverstab.errors import BadSubset, ContextMismatch, IndexMismatch
from quiverstab.walls import interior_point, sample_interior_points


def test_make_theta_examples(rs_a1, rs_a2):
    theta = make_theta(rs_a2, (3, 3, 3), (-7, 9, 1))
    assert theta.theta_inf == -9
    assert make_theta(rs_a2, rs_a2.delta, (0, 0, 0)).theta_inf == 0
    assert make_theta(rs_a1, (1, 1), (1, 1)).theta_inf == -2


def test_pair_dim_examples(rs_a1):
    theta = make_theta(rs_a1, (1, 1), (1, 1))
    assert pair_dim(theta, DimVector(1, (1, 1))) == 0  # defining relation
    assert pair_dim(theta, DimVector(1, (0, 0))) == theta.theta_inf == -2
    assert pair_dim(theta, DimVector(0, (1, 1))) == 2


def test_pair_dim_index_mismatch(rs_a1):
    theta = make_theta(rs_a1, (1, 1), (1, 1))
    with pytest.raises(IndexMismatch):
        pair_dim(theta, DimVector(0, (1, 1, 1)))


def test_cone_membership_examples(rs_a1, rs_a2):
    theta = make_theta(rs_a2, (3, 3, 3), (-7, 9, 1))
    assert cone_membership(theta, ConeSpec(kind="C", n=3, K=frozenset({2})))
    zero = make_theta(rs_a2, (3, 3, 3), (0, 0, 0))
    assert cone_membership(zero, ConeSpec(kind="F", n=3))
    boundary = make_theta(rs_a1, (1, 1), (-1, 1))
    assert not cone_membership(boundary, ConeSpec(kind="C", n=1))


def test_cone_context_mismatch(rs_a2):
    theta = make_theta(rs_a2, (1, 1, 1), (1, 1, 1))
    with pytest.raises(ContextMismatch):
        cone_membership(theta, ConeSpec(kind="C", n=2))


def test_cone_spec_validation():
    with pytest.raises(BadSubset):
        ConeSpec(kind="C", n=1, K=frozenset({0}))
    with pytest.raises(BadSubset):
        ConeSpec(kind="sigmaKK", n=1, K=frozenset({1}), Kp=frozenset({2}))
    with pytest.raises(BadSubset):
        ConeSpec(kind="blob", n=1)
    with pytest.raises(BadSubset):
        ConeSpec(kind="C", n=0)


def test_craw_wye_examples(rs_a1, rs_a2):
    theta = craw_wye_theta(rs_a2, {0, 1}, 3)
    assert theta.entries == (Fraction(-7), Fraction(9), Fraction(1))
    theta1 = craw_wye_theta(rs_a1, {0}, 1)
    assert theta1.entries == (Fraction(1), Fraction(1))
    for label in ("A1", "A2", "A3", "D4"):
        rs = build_root_system(DynkinType.parse(label))
        full = craw_wye_theta(rs, set(rs.vertices), 1)
        assert all(full.entries[j] == rs.h for j in rs.vertices if j != 0)
        assert cone_membership(full, ConeSpec(kind="C", n=1))


def test_craw_wye_bad_subset(rs_a2):
    with pytest.raises(BadSubset):
        craw_wye_theta(rs_a2, {1}, 1)
    with pytest.raises(BadSubset):
        craw_wye_theta(rs_a2, {0, 9}, 1)


def test_craw_wye_refuses_nonpositive_n(rs_a2):
    for n in (0, -1):
        with pytest.raises(BadSubset):
            craw_wye_theta(rs_a2, {0}, n)


def _all_J(rs):
    rest = [i for i in rs.vertices if i != 0]
    for mask in range(1 << len(rest)):
        yield frozenset({0} | {v for b, v in enumerate(rest) if mask >> b & 1})


@pytest.mark.parametrize("label", ["A1", "A2", "D4"])
@pytest.mark.parametrize("n", [1, 2])
def test_craw_wye_always_lands_in_its_chamber(label, n):
    rs = build_root_system(DynkinType.parse(label))
    for J in _all_J(rs):
        K = frozenset(rs.vertices) - J
        theta = craw_wye_theta(rs, J, n)
        assert cone_membership(theta, ConeSpec(kind="C", n=n, K=K))


@pytest.mark.parametrize("label,n", [("A2", 2), ("A2", 3), ("A3", 2)])
def test_chambers_inside_fundamental_cone(label, n):
    rs = build_root_system(DynkinType.parse(label))
    F = ConeSpec(kind="F", n=n)
    for J in _all_J(rs):
        K = frozenset(rs.vertices) - J
        cone = ConeSpec(kind="C", n=n, K=K)
        for theta in sample_interior_points(
            rs, n, cone_constraints(rs, cone), count=4, seed=3
        ):
            assert cone_membership(theta, F)


def test_sigma_kk_equals_sigma(rs_a2):
    # sigma_{K,K} and sigma_K are one and the same inequality system
    K = frozenset({1, 2})
    a = cone_constraints(rs_a2, ConeSpec(kind="sigma", n=2, K=K))
    b = cone_constraints(rs_a2, ConeSpec(kind="sigmaKK", n=2, K=K, Kp=K))
    assert sorted(a) == sorted(b)
    for theta in sample_interior_points(rs_a2, 2, a, count=3, seed=1):
        assert cone_membership(theta, ConeSpec(kind="sigmaKK", n=2, K=K, Kp=K))


def test_chamber_implies_relint_of_its_closure(rs_a2):
    # C_K points satisfy the strict sigma_{K, empty} system
    n = 2
    for K in (frozenset(), frozenset({1}), frozenset({1, 2})):
        cone = ConeSpec(kind="C", n=n, K=K)
        relint = ConeSpec(kind="sigmaKK", n=n, K=K, Kp=frozenset())
        for theta in sample_interior_points(
            rs_a2, n, cone_constraints(rs_a2, cone), count=5, seed=9
        ):
            assert cone_membership(theta, relint)


def test_relint_of_closure_exceeds_chamber(rs_a2):
    # recorded counterexample: the strict sigma_{K, empty} system is wider
    # than C_K, so membership only transfers in one direction
    n = 2
    K = frozenset({2})
    theta = make_theta(rs_a2, (2, 2, 2), (Fraction(-3, 2), 1, 1))
    relint = ConeSpec(kind="sigmaKK", n=n, K=K, Kp=frozenset())
    assert cone_membership(theta, relint)
    assert not cone_membership(theta, ConeSpec(kind="C", n=n, K=K))


def test_convex_interpolation(rs_a2):
    n = 2
    for K in (frozenset({1}), frozenset({2}), frozenset({1, 2})):
        sigma = ConeSpec(kind="sigma", n=n, K=K)
        chamber = ConeSpec(kind="C", n=n, K=K)
        sigmas = sample_interior_points(
            rs_a2, n, cone_constraints(rs_a2, sigma), count=3, seed=21
        )
        chambers = sample_interior_points(
            rs_a2, n, cone_constraints(rs_a2, chamber), count=3, seed=22
        )
        for s in sigmas:
            for c in chambers:
                for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 100)):
                    moved = make_theta(
                        rs_a2,
                        s.context,
                        [a + eps * b for a, b in zip(s.entries, c.entries)],
                    )
                    assert cone_membership(moved, chamber)


def test_closed_flag_relaxes_strictness(rs_a2):
    n = 1
    K = frozenset({1})
    on_wall = interior_point(
        rs_a2,
        n,
        cone_constraints(rs_a2, ConeSpec(kind="sigma", n=n, K=K)),
    )
    assert on_wall is not None
    assert cone_membership(on_wall, ConeSpec(kind="sigma", n=n, K=K))
    assert cone_membership(on_wall, ConeSpec(kind="sigma", n=n, K=K), closed=True)
    # the zero vector sits in every closed cone but no relative interior
    zero = make_theta(rs_a2, rs_a2.delta, (0, 0, 0))
    assert not cone_membership(zero, ConeSpec(kind="sigma", n=n, K=K))
    assert cone_membership(zero, ConeSpec(kind="sigma", n=n, K=K), closed=True)
