"""Framed quivers, relation defects, orbit modules, and dimension windows."""

import random
from fractions import Fraction

import pytest

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    INF,
    build_root_system,
    corner_bounds_check,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    gauge_conjugate,
    is_pi_bar_module,
    moment_defect,
    reduce_rep,
)
from quiverstab.errors import (
    DuplicateOrbit,
    EmptyInput,
    IndexMismatch,
    MultipleFramings,
    NonFreeOrbit,
    ShapeMismatch,
    UnsupportedField,
    UnsupportedType,
)
from quiverstab.fieldops import PrimeField, QQ


def test_quiver_arrow_counts(rs_a1, rs_a2, rs_d4):
    assert len(framed_quiver(rs_a1).arrows) == 6  # doubled double bond + framing
    assert len(framed_quiver(rs_a2).arrows) == 8
    assert len(framed_quiver(rs_d4).arrows) == 10


def test_quiver_labels_and_partners(rs_a1):
    q = framed_quiver(rs_a1)
    labels = {a.label for a in q.arrows}
    assert labels == {"e:0-1", "e*:1-0", "e2:0-1", "e2*:1-0", "b", "b*"}
    for a in q.arrows:
        partner = q.arrow(a.partner)
        assert partner.partner == a.label
        assert (partner.tail, partner.head) == (a.head, a.tail)
        assert a.original != partner.original
    b = q.arrow("b")
    assert b.original and b.tail == INF and b.head == 0


def test_moment_defect_zero_rep(rs_a2):
    rep = FramedRep(framed_quiver(rs_a2), QQ, DimVector(1, (2, 2, 2)), {})
    defect = moment_defect(rep)
    assert all(x == 0 for mat in defect.values() for row in mat for x in row)
    assert is_pi_bar_module(rep)


def test_moment_defect_single_arrow(rs_a1):
    rep = FramedRep(
        framed_quiver(rs_a1),
        QQ,
        DimVector(1, (1, 1)),
        {"e:0-1": [[1]], "e*:1-0": [[1]]},
    )
    defect = moment_defect(rep)
    assert defect[1] == ((Fraction(1),),)
    assert defect[0] == ((Fraction(-1),),)
    assert not is_pi_bar_module(rep)


def test_zero_dimensional_vertex_products(rs_a2):
    # vertex 1 has dimension 0, so every product through it is empty or zero
    rep = FramedRep(
        framed_quiver(rs_a2),
        QQ,
        DimVector(1, (1, 0, 2)),
        {"b": [[2]], "b*": [[3]], "e:0-2": [[1], [2]], "e*:2-0": [[3, 1]]},
    )
    defect = moment_defect(rep)
    assert defect == {0: ((1,),), 1: (), 2: ((3, 1), (6, 2))}

    conj = gauge_conjugate(rep, {0: [[2]], 2: [[1, 1], [0, 1]]})
    assert conj.matrices == {
        "e:0-1": (),
        "e*:1-0": ((),),
        "e:0-2": ((Fraction(3, 2),), (1,)),
        "e*:2-0": ((6, -4),),
        "e:1-2": ((), ()),
        "e*:2-1": (),
        "b": ((4,),),
        "b*": ((Fraction(3, 2),),),
    }
    # the relation values transform by the gauge: g D g^-1
    assert moment_defect(conj) == {0: ((1,),), 1: (), 2: ((9, -6), (6, -4))}


def test_orbit_sum_examples(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], QQ)
    assert rep.dims == DimVector(1, (1, 1))
    assert is_pi_bar_module(rep)
    with pytest.raises(NonFreeOrbit):
        framed_orbit_sum(rs_a1, [(0, 0)], QQ)
    with pytest.raises(DuplicateOrbit):
        framed_orbit_sum(rs_a1, [(1, 0), (-1, 0)], QQ)


def test_orbit_sum_rejects_non_type_a(rs_d4):
    with pytest.raises(UnsupportedType):
        framed_orbit_sum(rs_d4, [(1, 0)], QQ)


def test_orbit_sum_rejects_degenerate_prime(rs_a1, rs_a2):
    with pytest.raises(UnsupportedField):
        framed_orbit_sum(rs_a1, [(1, 0)], PrimeField(2))  # p divides the group order
    with pytest.raises(UnsupportedField):
        framed_orbit_sum(rs_a2, [(1, 0)], PrimeField(3))
    # coprime case is fine
    rep = framed_orbit_sum(rs_a1, [(1, 0)], PrimeField(3))
    assert is_pi_bar_module(rep)


@pytest.mark.parametrize("label,points", [("A2", [(1, 0), (0, 1), (1, 1)]), ("A3", [(1, 2), (2, 1)])])
def test_orbit_sum_satisfies_relations(label, points):
    rs = build_root_system(DynkinType.parse(label))
    rep = framed_orbit_sum(rs, points, QQ)
    n = len(points)
    assert rep.dims == DimVector(1, tuple(n * d for d in rs.delta))
    assert is_pi_bar_module(rep)


def test_direct_sum_dims_and_errors(rs_a1):
    framed = framed_orbit_sum(rs_a1, [(1, 0)], QQ)
    unframed = FramedRep(framed.quiver, QQ, DimVector(0, (1, 1)), {})
    total = direct_sum([framed, unframed])
    assert total.dims == DimVector(1, (2, 2))
    with pytest.raises(EmptyInput):
        direct_sum([])
    with pytest.raises(MultipleFramings):
        direct_sum([framed, framed])


def _random_rep(rs, rng, field, r=1, spread=2):
    quiver = framed_quiver(rs)
    v = tuple(rng.randint(0, spread) for _ in rs.vertices)
    dims = DimVector(r, v)
    matrices = {}
    for a in quiver.arrows:
        m, n = dims.at(a.head), dims.at(a.tail)
        matrices[a.label] = [
            [field.coerce(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
        ]
    return FramedRep(quiver, field, dims, matrices)


def test_defect_of_direct_sum_is_blockwise(rs_a2):
    rng = random.Random(77)
    for _ in range(10):
        a = _random_rep(rs_a2, rng, QQ, r=1)
        b = _random_rep(rs_a2, rng, QQ, r=0)
        total = direct_sum([a, b])
        da, db, dt = moment_defect(a), moment_defect(b), moment_defect(total)
        for i in rs_a2.vertices:
            na = a.dims.v[i]
            for r_, row in enumerate(dt[i]):
                for c_, x in enumerate(row):
                    if r_ < na and c_ < na:
                        assert x == da[i][r_][c_]
                    elif r_ >= na and c_ >= na:
                        assert x == db[i][r_ - na][c_ - na]
                    else:
                        assert x == 0


def test_trace_identity(rs_a1, rs_a2):
    # sum of defect traces over the affine vertices equals tr(b* b) exactly,
    # so vanishing relations there force the relation at the framing vertex
    rng = random.Random(123)
    for rs in (rs_a1, rs_a2):
        for _ in range(12):
            rep = _random_rep(rs, rng, QQ, r=1)
            defect = moment_defect(rep)
            total = sum(row[k] for i in rs.vertices for k, row in enumerate(defect[i]))
            b_star_b = sum(
                rep.matrix("b*")[r][k] * rep.matrix("b")[k][r]
                for r in range(rep.dims.r)
                for k in range(rep.dims.v[0])
            )
            assert total == b_star_b


def test_shape_validation(rs_a1):
    with pytest.raises(ShapeMismatch):
        FramedRep(
            framed_quiver(rs_a1), QQ, DimVector(1, (1, 1)), {"e:0-1": [[1, 2]]}
        )
    with pytest.raises(ShapeMismatch):
        FramedRep(framed_quiver(rs_a1), QQ, DimVector(1, (1, 1)), {"nope": [[1]]})


def test_gauge_conjugation_preserves_relations(rs_a2):
    rep = framed_orbit_sum(rs_a2, [(1, 0), (0, 1)], QQ)
    gauge = {
        0: [[1, 1], [0, 1]],
        1: [[2, 0], [3, 1]],
        2: [[1, 0], [0, 5]],
    }
    conj = gauge_conjugate(rep, gauge)
    assert is_pi_bar_module(conj)
    assert conj.dims == rep.dims
    defect = moment_defect(conj)
    assert all(x == 0 for mat in defect.values() for row in mat for x in row)


def test_reduce_rep(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0), (1, 1)], QQ)
    red = reduce_rep(rep, 5)
    assert isinstance(red.field, PrimeField) and red.field.p == 5
    assert is_pi_bar_module(red)


def test_corner_bounds_examples(rs_a2):
    n = 2
    J = (0, 1)
    top = {j: n * rs_a2.delta[j] for j in J}
    assert corner_bounds_check((0, top), n, J, rs_a2) is True
    assert corner_bounds_check((1, top), n, J, rs_a2) is False
    assert corner_bounds_check((0, {0: 1, 1: 0}), n, J, rs_a2) is False


def test_corner_bounds_index_errors(rs_a2):
    with pytest.raises(IndexMismatch):
        corner_bounds_check((0, {1: 0}), 1, (1,), rs_a2)
    with pytest.raises(IndexMismatch):
        corner_bounds_check((0, {0: 0}), 1, (0, 1), rs_a2)


def test_corner_bounds_strict_reading(rs_a2):
    # r = 1 allows touching one endpoint componentwise but not equality with it
    n, J = 2, (0, 1, 2)
    v = {0: 1, 1: 2, 2: 1}  # touches the upper bound at vertex 1 only
    assert corner_bounds_check((1, v), n, J, rs_a2) is True
    assert corner_bounds_check((1, {j: 0 for j in J}), n, J, rs_a2) is False
