"""The integer sign kernel against Fraction pairings of the same stability vectors.

θ is drawn with mixed and large denominators and negative entries, and
often placed exactly on a wall of the arrangement or on a face of a cone,
where a sign is 0 and a closed cone differs from the open one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_stability as ref
from quiverstab import (
    ConeSpec,
    DimVector,
    DynkinType,
    build_arrangement,
    build_root_system,
    cone_constraints,
    cone_membership,
    make_theta,
    pair_dim,
    sign_vector,
    theta_from_nums,
)
from quiverstab.errors import IndexMismatch

TYPES = ["A1", "A2", "A3", "D4", "E6"]

rational = st.one_of(
    st.integers(-60, 60).map(Fraction),
    st.fractions(-5, 5, max_denominator=12),
    st.fractions(max_denominator=10**18),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)),
)


@st.composite
def cases(draw):
    rs = build_root_system(DynkinType.parse(draw(st.sampled_from(TYPES))))
    n = draw(st.integers(1, 3))
    arr = build_arrangement(rs, n)
    others = [i for i in rs.vertices if i != 0]
    K = frozenset(draw(st.sets(st.sampled_from(others))))
    Kp = frozenset(draw(st.sets(st.sampled_from(sorted(K))))) if K else frozenset()
    cones = [ConeSpec("F", n), ConeSpec("C", n, K), ConeSpec("sigma", n, K),
             ConeSpec("sigmaKK", n, K, Kp)]
    entries = draw(st.lists(rational, min_size=len(rs.vertices), max_size=len(rs.vertices)))
    # a wall of the arrangement or a face of one of the cones, or none
    faces = list(arr.hyperplanes)
    faces += [c for cone in cones for c, _ in cone_constraints(rs, cone)]
    face = draw(st.none() | st.sampled_from(faces))
    if face is not None:
        i = draw(st.sampled_from([i for i, c in enumerate(face) if c != 0]))
        rest = sum(c * e for j, (c, e) in enumerate(zip(face, entries)) if j != i)
        entries[i] = -rest / face[i]
    theta = make_theta(rs, tuple(n * d for d in rs.delta), entries)
    return rs, arr, cones, theta


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_sign_vector_and_cone_membership_match_fraction_pairings(case):
    _, arr, cones, theta = case
    assert sign_vector(arr, theta) == ref.sign_vector(arr, theta)
    for cone in cones:
        for closed in (False, True):
            assert cone_membership(theta, cone, closed) == ref.cone_membership(theta, cone, closed)


@settings(max_examples=100, deadline=None)
@given(case=cases(), data=st.data())
def test_value_and_pair_dim_match_fraction_pairings(case, data):
    rs, _, _, theta = case
    size = len(rs.vertices)
    for coeffs in (
        data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size)),
        data.draw(st.lists(rational, min_size=size, max_size=size)),
    ):
        got = theta.value(coeffs)
        assert type(got) is Fraction and got == ref.value(theta, coeffs)
    assert theta.theta_inf == ref.theta_inf(theta)
    d = DimVector(data.draw(st.integers(0, 3)),
                  tuple(data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))))
    got = pair_dim(theta, d)
    assert type(got) is Fraction and got == ref.pair_dim(theta, d)


def test_numerators_are_over_the_least_common_denominator(rs_a2):
    theta = make_theta(rs_a2, rs_a2.delta, (Fraction(-1, 6), Fraction(3, 4), 2))
    assert (theta.nums, theta.den) == ((-2, 9, 24), 12)
    assert make_theta(rs_a2, rs_a2.delta, (0, 0, 0)).den == 1


@settings(max_examples=200, deadline=None)
@given(
    label=st.sampled_from(TYPES),
    n=st.integers(1, 3),
    data=st.data(),
    den=st.integers(1, 10**6),
    factor=st.sampled_from([1, 2, 6, 7 * 11, 2**40]),
)
def test_theta_from_nums_is_make_theta_of_the_fractions(label, n, data, den, factor):
    rs = build_root_system(DynkinType.parse(label))
    size = len(rs.vertices)
    nums = data.draw(st.one_of(
        st.just([0] * size),
        st.lists(st.integers(-10**20, 10**20), min_size=size, max_size=size),
        st.lists(st.integers(-3, 3), min_size=size, max_size=size),
    ))
    # a common factor of the numerators and the denominator
    nums, den = [x * factor for x in nums], den * factor
    context = tuple(n * d for d in rs.delta)
    got = theta_from_nums(rs, context, nums, den)
    want = make_theta(rs, context, [Fraction(x, den) for x in nums])
    assert got == want and hash(got) == hash(want)
    assert (got.nums, got.den) == (want.nums, want.den)
    assert got.entries == tuple(Fraction(x, den) for x in nums)
    assert all(type(x) is int for x in got.nums) and type(got.den) is int


def test_theta_from_nums_refuses_wrong_lengths_and_denominators(rs_a2):
    with pytest.raises(IndexMismatch):
        theta_from_nums(rs_a2, rs_a2.delta, [1, 2], 1)
    with pytest.raises(IndexMismatch):
        theta_from_nums(rs_a2, (1, 1), [1, 2, 3], 1)
    with pytest.raises(IndexMismatch):
        theta_from_nums(rs_a2, rs_a2.delta, [1, 2, 3, 4], 5)
    for den in (0, -2):
        with pytest.raises(ValueError):
            theta_from_nums(rs_a2, rs_a2.delta, [1, 2, 3], den)


def test_cone_constraints_returns_a_fresh_list(rs_a2):
    cone = ConeSpec("C", 2, frozenset({1}))
    first = cone_constraints(rs_a2, cone)
    first.clear()
    assert cone_constraints(rs_a2, cone) == cone_constraints(rs_a2, cone, closed=False) != []
    assert cone_constraints(rs_a2, cone) is not cone_constraints(rs_a2, cone)
