"""Default slice labels found per cell against the exhaustive list of all 2^r names.

``chamber_label`` walks the chamber names C[K] in string order; the oracle
is the loop the CLI ran before: it lists every subset K of the vertices
1..r, sorts the names as strings and tests each chamber C_K in turn on its
``cone_constraints`` system.  Both must give the same first name and the
same position in that order, which picks the fill colour of a labeled cell.  The points are every cell centroid and every
vertex of the default slices, and random stability vectors, which reach the
ranks from 10 on, where string order is not numeric order.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from quiverstab import (
    ConeSpec,
    DynkinType,
    build_root_system,
    chamber_label,
    cone_constraints,
    figure_plane,
    make_theta,
)
from quiverstab.errors import SliceTooLarge
from quiverstab.fieldops import dot
from quiverstab.stability import holds
from quiverstab.walls import _check_slice, render_slice


@lru_cache(maxsize=None)
def _all_chambers(rs, n):
    """(name, rows, relations) of every chamber C_K, the names sorted as strings."""
    non_zero = [i for i in rs.vertices if i != 0]
    chambers = []
    for mask in range(1 << len(non_zero)):
        K = frozenset(v for b, v in enumerate(non_zero) if mask >> b & 1)
        name = "C[" + ",".join(str(v) for v in sorted(K)) + "]"
        rows, rels = zip(*cone_constraints(rs, ConeSpec(kind="C", n=n, K=K)))
        chambers.append((name, rows, rels))
    chambers.sort(key=lambda chamber: chamber[0])
    return chambers


def exhaustive_label(theta, n):
    """The first of all 2^r chamber names, sorted as strings, whose C_K holds theta.

    Each chamber's system is read from ``cone_constraints`` once and tested
    row by row at the integer numerators of theta (their denominator is
    positive), without the system cache of ``cone_membership``, which holds
    fewer systems than the 4,096 chambers of rank 12.
    """
    nums = theta.nums
    for position, (name, rows, rels) in enumerate(_all_chambers(theta.rs, n)):
        if all(holds(dot(row, nums), rel) for row, rel in zip(rows, rels)):
            return name, position
    return None


def test_string_order_is_not_numeric_order():
    rs = build_root_system(DynkinType.parse("A10"))
    # at n = 1 every vertex with theta_i > 0 may lie in K or in J, and C_K
    # needs theta(delta_J) = -1 + |J - {0}| > 0; C[1,10] comes before C[1,2]
    theta = make_theta(rs, rs.delta, [-1] + [1] * 10)
    assert chamber_label(theta, 1) == exhaustive_label(theta, 1)
    assert chamber_label(theta, 1)[0] == "C[1,10]"


def _drawn(type_label, n):
    """Whether the default slice is drawn, not refused as SliceTooLarge."""
    rs = build_root_system(DynkinType.parse(type_label))
    try:
        _check_slice(rs, n, figure_plane(rs))
    except SliceTooLarge:
        return False
    return True


# every default slice of A1-A8, D4-D8 and E6-E8 with n <= 3 that is drawn:
# 36 of them, up to A8 n=2, D5 n=3 and E8 n=1
SLICES = [(f"{family}{r}", n)
          for family, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8)))
          for r in ranks for n in (1, 2, 3) if _drawn(f"{family}{r}", n)]


@pytest.mark.parametrize("type_label, n", SLICES)
def test_default_slice_labels_match_the_exhaustive_list(type_label, n):
    rs = build_root_system(DynkinType.parse(type_label))
    plane = figure_plane(rs)
    context = tuple(n * d for d in rs.delta)
    result = render_slice(rs, n, plane)
    vertices = sorted({p for cell in result.cells for p in cell.vertices})
    labeled = 0
    for cell in result.cells:
        expected = exhaustive_label(cell.theta, n)
        assert chamber_label(cell.theta, n) == expected
        assert cell.label == (expected[0] if expected else "-")
        labeled += cell.label != "-"
    for x, y, w in vertices:
        s, t = Fraction(x, w), Fraction(y, w)
        entries = [b + s * u + t * v for b, u, v in zip(plane.base, plane.d1, plane.d2)]
        theta = make_theta(rs, context, entries)
        assert chamber_label(theta, n) == exhaustive_label(theta, n)
    assert labeled  # the plane meets the fundamental cone


TYPES = [f"A{r}" for r in range(1, 13)] + [f"D{r}" for r in range(4, 13)] + ["E6", "E7", "E8"]


@st.composite
def thetas(draw):
    """theta with theta(delta) = 1 mostly (chambers are cones, so the scale is free).

    Vertex i may lie in J iff theta_i > n - 1 then, and a chamber needs the
    delta-weighted sum over K below 1: entries are small (K only, once
    n > 1), above n - 1 (K or J), or now and then exactly on a face.
    """
    rs = build_root_system(DynkinType.parse(draw(st.sampled_from(TYPES))))
    n = draw(st.integers(1, 3))
    r = len(rs.vertices) - 1
    small = st.builds(Fraction, st.integers(1, 6), st.just(4 * r * max(rs.delta)))
    large = st.builds(lambda a, b: n - 1 + Fraction(a, b), st.integers(1, 6), st.integers(1, 3))
    face = st.sampled_from([Fraction(0), Fraction(-1), Fraction(n - 1)])
    kinds = [face] + [small] * 5 + [large] * 4
    entries = [draw(kinds[draw(st.integers(0, 9))]) for _ in range(r)]
    total = draw(st.sampled_from([1, 1, 1, 1, 0, -1]))  # theta(delta)
    first = total - sum(d * x for d, x in zip(rs.delta[1:], entries))
    return make_theta(rs, tuple(n * d for d in rs.delta), [first, *entries]), n


@settings(max_examples=150, deadline=None)
@given(case=thetas())
def test_random_thetas_match_the_exhaustive_list(case):
    theta, n = case
    assert chamber_label(theta, n) == exhaustive_label(theta, n)
