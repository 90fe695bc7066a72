"""`stab tangent` by a rank mod p, with the exact rational rank as fallback.

An orbit module of n free orbits of the cyclic group of order m is a point
of the Hilbert scheme of n points on C^2/G, a smooth Nakajima quiver
variety of dimension 2 v.w - v^T C v = 2n (C delta = 0), so `stab tangent`
must print 2n on every one of them up to the dimension cap.  The rank mod
p = MAX_PRIME is exact only when it is full; the tests below reach both
ways back to the rational rank (a singular point, and entries that vanish
mod p) and check that it ran.  The relation values over Q, now computed on
integer numerators, are compared with the Fraction products they replace.
"""

import io
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import zero_summand
from reference_tangent import reference_tangent_dimension

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    moment_defect,
    stabcheck,
    tangent_dimension,
)
from quiverstab.cli import main
from quiverstab.fieldops import MAX_PRIME, QQ, mat_mul, rank, zeros
from quiverstab.quiverrep import INF, MAX_TOTAL_DIM, _integral_form

COORD = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def _cap(rank):
    """Most free orbits of a type A module within the cap: 1 + n (rank + 1) <= MAX_TOTAL_DIM."""
    return (MAX_TOTAL_DIM - 1) // (rank + 1)


@st.composite
def orbit_points(draw):
    """(rank m - 1 of type A, n planar points in distinct free orbits), n up to the cap."""
    rank = draw(st.integers(1, 3))
    m = rank + 1
    n = draw(st.integers(1, _cap(rank)))
    points = draw(st.lists(
        st.tuples(COORD, COORD).filter(any),
        min_size=n,
        max_size=n,
        unique_by=lambda p: (p[0] ** m, p[0] * p[1], p[1] ** m),  # the orbit invariants
    ))
    return rank, points


def _main(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=20, deadline=None)
@given(case=orbit_points())
@example(case=(1, [(1, k) for k in range(_cap(1))]))  # total dimension 31
@example(case=(2, [(1, k) for k in range(_cap(2))]))
@example(case=(3, [(1, k) for k in range(_cap(3))]))
def test_stab_tangent_of_an_orbit_module_is_2n(case):
    rank, points = case
    text = ";".join(f"{x},{y}" for x, y in points)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "rep.json")
        _main("rep", "orbit-sum", "--type", f"A{rank}", f"--points={text}", "--out", path)
        assert _main("stab", "tangent", "--rep", path) == f"tangent {2 * len(points)}\n"


@pytest.fixture
def rank_fields(monkeypatch):
    """The fields ``tangent_dimension`` takes ranks over, in call order."""
    fields = []
    real = stabcheck.rank

    def spy(field, rows):
        fields.append(field.name)
        return real(field, rows)

    monkeypatch.setattr(stabcheck, "rank", spy)
    return fields


def test_a_full_rank_mod_p_is_not_checked_again(rank_fields):
    rs = build_root_system(DynkinType("A", 2))
    assert tangent_dimension(framed_orbit_sum(rs, [(1, 0), (0, 1), (1, 1)], QQ)) == 6
    assert rank_fields == [f"F{MAX_PRIME}"]


def test_entries_that_vanish_mod_p_fall_back_to_the_rational_rank(rank_fields):
    # every entry but the framing's is p: the Jacobian has rank 1 mod p and 2 over Q
    rs = build_root_system(DynkinType("A", 1))
    rep = framed_orbit_sum(rs, [(MAX_PRIME, MAX_PRIME)], QQ)
    assert tangent_dimension(rep) == 2
    assert rank_fields == [f"F{MAX_PRIME}", "Q"]
    jacobian = stabcheck._relation_jacobian(_integral_form(rep)[0])
    assert rank(stabcheck._modular_field(), jacobian) == 1
    assert rank(QQ, jacobian) == 2


def test_a_singular_point_falls_back_to_the_rational_rank(rank_fields):
    rs = build_root_system(DynkinType("A", 1))
    rep = direct_sum([framed_orbit_sum(rs, [(1, 2)], QQ), zero_summand(rs)])
    expected = reference_tangent_dimension(rep)
    rank_fields.clear()
    assert tangent_dimension(rep) == expected
    assert expected > 2  # the zero summand adds deformations
    assert rank_fields == [f"F{MAX_PRIME}", "Q"]


def _fraction_defect(rep):
    """The relation values by Fraction products, as ``moment_defect`` made them before."""
    dims = rep.dims
    defect = {i: zeros(QQ, d, d) for i, d in enumerate(dims.v)}
    for a in rep.quiver.originals():
        x, y = rep.matrix(a.label), rep.matrix(a.partner)
        for vertex, product, sign in ((a.head, (x, y), 1), (a.tail, (y, x), -1)):
            if vertex != INF and dims.at(a.tail if sign == 1 else a.head):
                prod = mat_mul(QQ, *product)
                defect[vertex] = tuple(
                    tuple(u + sign * w for u, w in zip(r1, r2))
                    for r1, r2 in zip(defect[vertex], prod)
                )
    return defect


def test_rational_relation_values_equal_the_fraction_products():
    rng = random.Random(20261020)
    entries = [0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(7, 9)]
    for type_label in ("A1", "A2", "A3", "D4"):
        rs = build_root_system(DynkinType.parse(type_label))
        quiver = framed_quiver(rs)
        for _ in range(10):
            dims = DimVector(rng.randint(0, 1), tuple(rng.randint(0, 3) for _ in rs.vertices))
            matrices = {
                a.label: [[rng.choice(entries) for _ in range(dims.at(a.tail))]
                          for _ in range(dims.at(a.head))]
                for a in quiver.arrows
            }
            rep = FramedRep(quiver, QQ, dims, matrices)
            got = moment_defect(rep)
            assert got == _fraction_defect(rep)
            assert all(type(x) is Fraction for mat in got.values() for row in mat for x in row)
