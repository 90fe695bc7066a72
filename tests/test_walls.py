"""Arrangements, sign vectors, exact feasibility, and slice rendering."""

from fractions import Fraction

import pytest

from quiverstab import (
    ConeSpec,
    DynkinType,
    build_arrangement,
    build_root_system,
    cone_constraints,
    cone_membership,
    craw_wye_theta,
    figure_plane,
    make_theta,
    render_slice,
    sign_vector,
)
from quiverstab.cli import main
from quiverstab import walls
from quiverstab.errors import (
    ArrangementTooLarge,
    ContextMismatch,
    DegeneratePlane,
    SamplerExhausted,
)
from quiverstab.walls import (
    SlicePlane,
    generic_relint_point,
    interior_point,
    sample_interior_points,
)


def _independent_wall_count(rs, n):
    """Recount the walls by affine normalization instead of gcd reduction."""
    seen = set()
    vectors = [tuple(rs.delta)]
    for m in range(n):
        for alpha in rs.positive_roots:
            padded = (0,) + tuple(alpha)
            for sign in (1, -1):
                vectors.append(
                    tuple(m * d + sign * a for d, a in zip(rs.delta, padded))
                )
    for vec in vectors:
        lead = next(x for x in vec if x != 0)
        seen.add(tuple(Fraction(x, lead) for x in vec))
    return len(seen)


@pytest.mark.parametrize(
    "label,n,expected",
    [("A1", 1, 2), ("A1", 2, 4), ("A2", 3, 16), ("A2", 1, 4), ("A3", 2, 19)],
)
def test_arrangement_counts(label, n, expected):
    rs = build_root_system(DynkinType.parse(label))
    arr = build_arrangement(rs, n)
    assert len(arr) == expected
    assert _independent_wall_count(rs, n) == expected


def test_arrangement_cap_counts_walls_before_building(rs_a2, monkeypatch):
    # A2 n=3: 1 + 5 * 3 = 16 walls, each counted as 3 vertices + 24 entries
    monkeypatch.setattr(walls, "MAX_BUILD_ENTRIES", 16 * 27)
    assert len(build_arrangement(rs_a2, 3)) == 16
    monkeypatch.setattr(walls, "MAX_BUILD_ENTRIES", 16 * 27 - 1)
    with pytest.raises(ArrangementTooLarge, match="A2 n=3 has 16 walls, more than the 15 "):
        build_arrangement(rs_a2, 3)


def test_arrangement_invariants(rs_a2):
    arr = build_arrangement(rs_a2, 3)
    coeffs = list(arr.hyperplanes)
    assert tuple(rs_a2.delta) in coeffs
    for c in coeffs:
        from math import gcd

        content = 0
        for x in c:
            content = gcd(content, abs(x))
        assert content == 1
        assert next(x for x in c if x != 0) > 0
    # pairwise non-parallel: primitive sign-normalized normals are distinct
    assert len(set(coeffs)) == len(coeffs)


def test_sign_vector_examples(rs_a1):
    arr = build_arrangement(rs_a1, 1)
    by_normal = dict(zip(arr.hyperplanes, range(len(arr))))
    theta = make_theta(rs_a1, (1, 1), (1, 1))
    signs = sign_vector(arr, theta)
    assert signs[by_normal[(1, 1)]] == "+"  # the isotropic wall
    assert signs[by_normal[(0, 1)]] == "+"
    on_wall = make_theta(rs_a1, (1, 1), (1, 0))
    assert sign_vector(arr, on_wall)[by_normal[(0, 1)]] == "0"


def test_sign_vector_context_check(rs_a1):
    arr = build_arrangement(rs_a1, 2)
    theta = make_theta(rs_a1, (1, 1), (1, 1))
    with pytest.raises(ContextMismatch):
        sign_vector(arr, theta)


def test_craw_wye_sign_vector_generic(rs_a2):
    arr = build_arrangement(rs_a2, 3)
    theta = craw_wye_theta(rs_a2, {0, 1}, 3)
    assert "0" not in sign_vector(arr, theta)


def test_interior_point_feasible_chamber(rs_a1):
    cone = ConeSpec(kind="C", n=2, K=frozenset())
    theta = interior_point(rs_a1, 2, cone_constraints(rs_a1, cone))
    assert theta is not None
    assert cone_membership(theta, cone)


def test_interior_point_infeasible(rs_a1):
    assert interior_point(rs_a1, 1, [((1, 1), ">"), ((-1, -1), ">")]) is None
    assert interior_point(rs_a1, 1, [((1, 0), ">"), ((1, 0), "="), ((0, 1), ">=")]) is None


def test_interior_point_exact_equalities(rs_a2):
    cone = ConeSpec(kind="sigma", n=3, K=frozenset({2}))
    theta = interior_point(rs_a2, 3, cone_constraints(rs_a2, cone))
    assert theta is not None
    assert theta.entries[2] == 0
    assert cone_membership(theta, cone)


def test_interior_point_affine_rhs(rs_a1):
    theta = interior_point(
        rs_a1,
        1,
        [((1, 0), "=", Fraction(5, 3)), ((0, 1), ">", Fraction(2)), ((0, 1), ">=", Fraction(-7))],
    )
    assert theta.entries[0] == Fraction(5, 3)
    assert theta.entries[1] > 2


def test_interior_point_strictness_tracking(rs_a1):
    # x > 0 together with -x >= 0 is empty even though closures intersect
    assert interior_point(rs_a1, 1, [((1, 0), ">"), ((-1, 0), ">=")]) is None
    # non-strict version is satisfiable on the wall
    theta = interior_point(rs_a1, 1, [((1, 0), ">="), ((-1, 0), ">=")])
    assert theta.entries[0] == 0


def test_chamber_witnesses_are_wall_free(rs_a2):
    for n in (1, 2, 3):
        arr = build_arrangement(rs_a2, n)
        for K in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})):
            cone = ConeSpec(kind="C", n=n, K=K)
            theta = interior_point(rs_a2, n, cone_constraints(rs_a2, cone))
            assert "0" not in sign_vector(arr, theta)


def test_n1_chambers_coincide():
    for label in ("A1", "A2", "A3"):
        rs = build_root_system(DynkinType.parse(label))
        arr = build_arrangement(rs, 1)
        rest = [i for i in rs.vertices if i != 0]
        vectors = set()
        for mask in range(1 << len(rest)):
            K = frozenset(v for b, v in enumerate(rest) if mask >> b & 1)
            cone = ConeSpec(kind="C", n=1, K=K)
            for theta in sample_interior_points(
                rs, 1, cone_constraints(rs, cone), count=10, seed=5
            ):
                vectors.add("".join(sign_vector(arr, theta)))
        assert len(vectors) == 1


def test_equal_sign_vectors_give_equal_membership_for_n2(rs_a2):
    # membership in any chamber system is constant on arrangement chambers
    # once n >= 2; at n = 1 the systems are proper subcones of one chamber
    n = 2
    arr = build_arrangement(rs_a2, n)
    cones = [
        ConeSpec(kind="C", n=n, K=K)
        for K in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))
    ]
    points = []
    for cone in cones:
        points.extend(
            sample_interior_points(rs_a2, n, cone_constraints(rs_a2, cone), 6, seed=31)
        )
    for a in points:
        for b in points:
            if sign_vector(arr, a) == sign_vector(arr, b):
                for cone in cones:
                    assert cone_membership(a, cone) == cone_membership(b, cone)


def test_generic_relint_point_zero_set(rs_a2):
    n = 3
    arr = build_arrangement(rs_a2, n)
    for K in (frozenset({1}), frozenset({2}), frozenset({1, 2})):
        cone = ConeSpec(kind="sigma", n=n, K=K)
        theta, forced = generic_relint_point(
            rs_a2,
            n,
            cone_constraints(rs_a2, cone),
            list(arr.hyperplanes),
        )
        zeros = {
            h for h in arr.hyperplanes if theta.value(h) == 0
        }
        expected = {
            h
            for h in arr.hyperplanes
            if all(h[i] == 0 or i in K for i in rs_a2.vertices)
        }
        assert zeros == expected
        assert set(forced) == expected


def test_generic_relint_point_finds_an_implicit_equality(rs_a2):
    # x1 >= 0 and -x1 >= 0 force x1 = 0 without an explicit "=" row
    system = [((0, 1, 0), ">="), ((0, -1, 0), ">="), ((1, 1, 1), ">")]
    avoid = [(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, -1, 1), (0, 1, 1)]
    theta, forced = generic_relint_point(rs_a2, 2, system, avoid)
    assert forced == ((0, 1, 0),)
    assert all(theta.value(c) != 0 for c in avoid[1:])
    assert theta.entries[1] == 0 and theta.value(rs_a2.delta) > 0


def test_generic_relint_point_infeasible_and_unconstrained(rs_a2):
    empty = [((1, 0, 0), ">"), ((-1, 0, 0), ">")]
    assert generic_relint_point(rs_a2, 1, empty, [(1, 0, 0)]) == (None, ())
    avoid = [(1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 1), (0, 0, 0)]
    theta, forced = generic_relint_point(rs_a2, 1, [], avoid)
    assert forced == ((0, 0, 0),)
    assert all(theta.value(c) != 0 for c in avoid[:-1])


def test_sampler_refuses_a_single_point_set(rs_a1):
    point = [((1, 0), ">="), ((-1, 0), ">="), ((0, 1), "=")]
    with pytest.raises(SamplerExhausted):
        sample_interior_points(rs_a1, 1, point, 2, seed=0)


def test_sampler_of_an_infeasible_system_is_empty(rs_a1):
    empty = [((1, 1), ">"), ((-1, -1), ">")]
    assert sample_interior_points(rs_a1, 1, empty, 3, seed=0) == []


def test_render_slice_a1_four_cells(rs_a1):
    plane = figure_plane(rs_a1)
    result = render_slice(rs_a1, 1, plane, [])
    assert len(result.cells) == 4
    assert all("0" not in cell.signs for cell in result.cells)
    assert len({cell.signs for cell in result.cells}) == 4


def test_render_slice_degenerate_plane(rs_a2):
    inside_delta_wall = SlicePlane(
        base=(0, 0, 0),
        d1=(1, -1, 0),
        d2=(0, 1, -1),
        window=(-1, 1, -1, 1),
    )
    with pytest.raises(DegeneratePlane):
        render_slice(rs_a2, 1, inside_delta_wall, [])


def test_render_slice_deterministic(rs_a2):
    labels = [
        ("C[]", ConeSpec(kind="C", n=3, K=frozenset())),
        ("C[1,2]", ConeSpec(kind="C", n=3, K=frozenset({1, 2}))),
    ]
    one = render_slice(rs_a2, 3, figure_plane(rs_a2), labels)
    two = render_slice(rs_a2, 3, figure_plane(rs_a2), labels)
    assert one.svg == two.svg
    assert one.table == two.table
    assert one.svg.startswith("<svg ")
    assert "cell\tsigns\tlabel" in one.table


def _zaslavsky_cell_count(arr, plane):
    """1 + L + sum over interior vertices v of (m_v - 1) for the clipped lines.

    L counts the distinct lines crossing the open window and m_v the lines
    through an arrangement vertex v inside it (Zaslavsky 1975).
    """
    smin, smax, tmin, tmax = (Fraction(x) for x in plane.window)
    corners = [(smin, tmin), (smax, tmin), (smax, tmax), (smin, tmax)]
    lines = set()
    for h in arr.hyperplanes:
        a = sum(c * Fraction(x) for c, x in zip(h, plane.d1))
        b = sum(c * Fraction(x) for c, x in zip(h, plane.d2))
        c0 = sum(c * Fraction(x) for c, x in zip(h, plane.base))
        values = [a * s + b * t + c0 for s, t in corners]
        if min(values) < 0 < max(values):
            lead = a if a != 0 else b
            lines.add((a / lead, b / lead, c0 / lead))
    lines = sorted(lines)
    through = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            s = (b1 * c2 - b2 * c1) / det
            t = (a2 * c1 - a1 * c2) / det
            if smin < s < smax and tmin < t < tmax:
                through.setdefault((s, t), set()).update({(a1, b1, c1), (a2, b2, c2)})
    return 1 + len(lines) + sum(len(ls) - 1 for ls in through.values())


def test_default_plane_for_two_and_three_vertices(rs_a1, rs_a2):
    wide, narrow = Fraction(6, 5), Fraction(1, 5)
    assert figure_plane(rs_a1) == SlicePlane((0, 0), (1, 0), (0, 1), (-wide, wide, -wide, wide))
    assert figure_plane(rs_a2) == SlicePlane(
        (1, 0, 0), (-2, 1, 0), (-2, 0, 1), (-narrow, wide, -narrow, wide)
    )


@pytest.mark.parametrize("type_label, n", [("A3", 2), ("D4", 1), ("E6", 1)])
def test_default_slice_from_rank_three(capsys, tmp_path, type_label, n):
    table = tmp_path / "cells.tsv"
    code = main(["walls", "slice", "--type", type_label, "-n", str(n),
                 "--out", str(tmp_path / "slice.svg"), "--table", str(table)])
    assert code == 0
    capsys.readouterr()
    rs = build_root_system(DynkinType.parse(type_label))
    plane = figure_plane(rs)
    cells = table.read_text().splitlines()[1:]
    assert len(cells) == _zaslavsky_cell_count(build_arrangement(rs, n), plane)
    # the plane crosses the interior of the fundamental cone
    quarter = Fraction(1, 4)
    entries = [b + quarter * (x + y) for b, x, y in zip(plane.base, plane.d1, plane.d2)]
    inside = make_theta(rs, tuple(n * d for d in rs.delta), entries)
    assert cone_membership(inside, ConeSpec(kind="F", n=n))
    assert all(x > 0 for x in inside.entries[1:]) and inside.value(rs.delta) > 0
