"""Submodule lattices, stability verdicts, HN filtrations, tangent spaces."""

import itertools

import pytest

from corpus import build_corpus, unframed_orbit, zero_summand

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    INF,
    build_root_system,
    craw_wye_theta,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    hn_filtration,
    is_framing_cyclic,
    make_theta,
    pair_dim,
    reduce_rep,
    spin,
    stability_report,
    submodule_lattice,
    tangent_dimension,
)
from quiverstab.errors import (
    IndexMismatch,
    LatticeTooLarge,
    NoFraming,
    NotAModule,
    UnsupportedField,
)
from quiverstab.fieldops import PrimeField, QQ, mat_vec
from quiverstab.stabcheck import HNFiltration, _vertex_order
from reference_lattice import _slope, _subrep

F2 = PrimeField(2)
F3 = PrimeField(3)


# -- brute-force oracle --------------------------------------------------------

def _rref_mod_p(rows, p):
    """Tiny self-contained reduced echelon form over F_p for the oracle."""
    rows = [list(r) for r in rows]
    out = []
    pivots = []
    for row in rows:
        row = row[:]
        for prow, piv in zip(out, pivots):
            c = row[piv]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        piv = next((j for j, x in enumerate(row) if x % p), None)
        if piv is None:
            continue
        inv = pow(row[piv], -1, p)
        row = [(inv * x) % p for x in row]
        for k, (prow, ppiv) in enumerate(zip(out, pivots)):
            c = prow[piv]
            if c:
                out[k] = [(a - c * b) % p for a, b in zip(prow, row)]
        at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
        out.insert(at, row)
        pivots.insert(at, piv)
    return tuple(tuple(r) for r in out)


def _brute_lattice(rep):
    """All submodules by spinning every nonzero total-space vector, then
    closing the set under pairwise sums; independent of the block shortcut."""
    p = rep.field.p
    order = _vertex_order(rep)
    dims = [rep.dims.at(v) for v in order]
    total = sum(dims)

    def family_sig(family):
        return tuple(_rref_mod_p(family[v], p) for v in order)

    sigs = set()

    def record(family):
        sigs.add(family_sig(family))

    record({v: () for v in order})
    for vec in itertools.product(range(p), repeat=total):
        if not any(vec):
            continue
        seeds = []
        offset = 0
        for v, d in zip(order, dims):
            comp = vec[offset : offset + d]
            offset += d
            if any(comp):
                seeds.append((v, comp))
        record(spin(rep, seeds))

    changed = True
    while changed:
        changed = False
        current = list(sigs)
        for a in current:
            for b in current:
                joined = tuple(
                    _rref_mod_p(ra + rb, p) for ra, rb in zip(a, b)
                )
                if joined not in sigs:
                    sigs.add(joined)
                    changed = True
    return sigs


@pytest.mark.parametrize(
    "build",
    [
        lambda: reduce_rep(framed_orbit_sum(_rs("A1"), [(1, 0)], QQ), 3),
        lambda: reduce_rep(framed_orbit_sum(_rs("A1"), [(1, 0)], QQ), 2)
        .with_matrix("b", ((0,),)),
        lambda: reduce_rep(framed_orbit_sum(_rs("A2"), [(1, 1)], QQ), 2),
        lambda: reduce_rep(
            direct_sum(
                [framed_orbit_sum(_rs("A1"), [(1, 0)], QQ), zero_summand(_rs("A1"))]
            ),
            2,
        ),
    ],
)
def test_lattice_matches_brute_force(build):
    rep = build()
    lattice = submodule_lattice(rep)
    assert {node.bases for node in lattice.nodes} == _brute_lattice(rep)


def _rs(label):
    return build_root_system(DynkinType.parse(label))


# -- spin ----------------------------------------------------------------------

def test_spin_of_nothing_is_zero(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    family = spin(rep, [])
    assert all(rows == () for rows in family.values())


def test_spin_from_framing_generates_orbit_module(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    family = spin(rep, [(INF, (1,))])
    assert len(family[INF]) == 1
    assert len(family[0]) == 1 and len(family[1]) == 1


def test_spin_from_vertex_one_gives_unframed_part(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    family = spin(rep, [(1, (1,))])
    assert family[INF] == ()
    assert len(family[0]) == 1 and len(family[1]) == 1


def test_spin_refuses_a_seed_of_the_wrong_length(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    with pytest.raises(IndexMismatch):
        spin(rep, [(INF, (1, 0))])


# -- lattice -------------------------------------------------------------------

def test_lattice_of_framing_line(rs_a1):
    rep = FramedRep(framed_quiver(rs_a1), F3, DimVector(1, (0, 0)), {})
    lattice = submodule_lattice(rep)
    assert len(lattice.nodes) == 2
    assert [n.dims.key() for n in lattice.nodes] == [(0, 0, 0), (1, 0, 0)]


def test_lattice_orbit_mod_three(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    lattice = submodule_lattice(rep)
    keys = {n.dims.key() for n in lattice.nodes}
    assert {(0, 0, 0), (0, 1, 1), (1, 1, 1)} <= keys


def test_lattice_direct_sum_has_framing_node(rs_a1):
    rep = direct_sum(
        [
            FramedRep(framed_quiver(rs_a1), F3, DimVector(1, (0, 0)), {}),
            FramedRep(framed_quiver(rs_a1), F3, DimVector(0, (1, 1)), {}),
        ]
    )
    lattice = submodule_lattice(rep)
    assert (1, 0, 0) in {n.dims.key() for n in lattice.nodes}


def test_lattice_relations_are_containments(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    lattice = submodule_lattice(rep)
    pairs = set(lattice.relations)
    zero = next(i for i, n in enumerate(lattice.nodes) if n.dims.total() == 0)
    whole = next(
        i for i, n in enumerate(lattice.nodes) if n.dims == rep.dims
    )
    for i in range(len(lattice.nodes)):
        if i != zero:
            assert (zero, i) in pairs
        if i != whole:
            assert (i, whole) in pairs


def test_lattice_caps(rs_a2):
    big = FramedRep(framed_quiver(rs_a2), PrimeField(5), DimVector(1, (2, 2, 2)), {})
    with pytest.raises(LatticeTooLarge):
        submodule_lattice(big)  # total 7 over the F_5 cap of 6
    rational = framed_orbit_sum(rs_a2, [(1, 0)], QQ)
    with pytest.raises(UnsupportedField):
        submodule_lattice(rational)
    with pytest.raises(LatticeTooLarge):
        submodule_lattice(
            FramedRep(framed_quiver(rs_a2), PrimeField(7), DimVector(0, (1, 0, 0)), {})
        )


# -- stability reports ----------------------------------------------------------

def test_stable_orbit_module(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    theta = craw_wye_theta(rs_a1, {0}, 1)
    report = stability_report(rep, theta)
    assert report.semistable and report.stable and report.witness is None
    assert "F3" in report.caveat


def test_broken_framing_witness(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3).with_matrix("b", ((0,),))
    theta = craw_wye_theta(rs_a1, {0}, 1)
    report = stability_report(rep, theta)
    assert not report.semistable and not report.stable
    assert report.witness.dims == DimVector(1, (0, 0))
    assert pair_dim(theta, report.witness.dims) == theta.theta_inf < 0


def test_framing_line_is_vacuously_stable(rs_a1):
    rep = FramedRep(framed_quiver(rs_a1), F3, DimVector(1, (0, 0)), {})
    theta = make_theta(rs_a1, (0, 0), (7, -5))
    report = stability_report(rep, theta)
    assert report.stable


def test_witnesses_are_genuine_submodules(rs_a1, rs_a2):
    theta_by_type = {
        "A1": craw_wye_theta(rs_a1, {0}, 1),
        "A2": craw_wye_theta(rs_a2, {0}, 2),
    }
    checked = 0
    for label, type_label, n, rep in build_corpus(12):
        rs = rep.quiver.rs
        theta = craw_wye_theta(rs, {0}, n)
        report = stability_report(rep, theta)
        if report.witness is None:
            continue
        checked += 1
        node = report.witness
        order = _vertex_order(rep)
        basis = {v: node.bases[k] for k, v in enumerate(order)}
        # arrow invariance, re-verified from scratch
        for a in rep.quiver.arrows:
            rows_h = basis[a.head]
            for row in basis[a.tail]:
                image = mat_vec(rep.field, rep.matrix(a.label), row)
                reduced = list(image)
                for brow in rows_h:
                    piv = next(
                        j for j, x in enumerate(brow) if x % rep.field.p
                    )
                    c = reduced[piv]
                    reduced = [
                        (x - c * y) % rep.field.p for x, y in zip(reduced, brow)
                    ]
                assert all(x % rep.field.p == 0 for x in reduced)
        value = pair_dim(theta, node.dims)
        if not report.semistable:
            assert value < 0
        else:
            assert value == 0 and 0 < node.dims.total() < rep.dims.total()
    assert checked >= 2


# -- framing cyclicity -----------------------------------------------------------

def test_is_framing_cyclic_examples(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    assert is_framing_cyclic(rep)
    assert not is_framing_cyclic(rep.with_matrix("b", ((0,),)))
    line = FramedRep(framed_quiver(rs_a1), F3, DimVector(1, (0, 0)), {})
    assert is_framing_cyclic(line)
    unframed = FramedRep(framed_quiver(rs_a1), F3, DimVector(0, (1, 1)), {})
    with pytest.raises(NoFraming):
        is_framing_cyclic(unframed)


def test_c_plus_stability_iff_cyclic_small(rs_a1, rs_a2):
    for label, type_label, n, rep in build_corpus(10):
        theta = craw_wye_theta(rep.quiver.rs, {0}, n)
        report = stability_report(rep, theta)
        assert report.stable == is_framing_cyclic(rep), label


# -- Harder-Narasimhan ------------------------------------------------------------

def test_hn_stable_is_single_layer(rs_a1):
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3)
    theta = craw_wye_theta(rs_a1, {0}, 1)
    filtration = hn_filtration(rep, theta)
    assert len(filtration.layers) == 1
    assert filtration.layers[0].dims == rep.dims
    assert filtration.layers[0].slope == 0


def test_hn_of_the_zero_module_has_no_layers(rs_a1):
    rep = FramedRep(framed_quiver(rs_a1), F3, DimVector(0, (0, 0)), {})
    assert hn_filtration(rep, craw_wye_theta(rs_a1, {0}, 1)) == HNFiltration(layers=())


def test_hn_broken_framing_two_layers(rs_a1):
    # the framing line pairs to -theta(delta) < 0, so it is the maximal
    # destabilizer and comes first; the orbit part follows
    rep = framed_orbit_sum(rs_a1, [(1, 0)], F3).with_matrix("b", ((0,),))
    theta = make_theta(rs_a1, (1, 1), (1, 1))  # theta(delta) = 2 > 0
    filtration = hn_filtration(rep, theta)
    assert [layer.dims.key() for layer in filtration.layers] == [
        (1, 0, 0),
        (0, 1, 1),
    ]
    assert filtration.layers[0].slope == 2
    assert filtration.layers[1].slope == -1


def test_hn_partial_framing_decreasing_slopes(rs_a1):
    rep = reduce_rep(
        direct_sum(
            [
                framed_orbit_sum(rs_a1, [(1, 0)], QQ),
                unframed_orbit(rs_a1, (1, 1)),
            ]
        ),
        3,
    )
    theta = make_theta(rs_a1, (2, 2), (1, 1))
    filtration = hn_filtration(rep, theta)
    assert len(filtration.layers) >= 2
    slopes = filtration.slopes()
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_hn_contracts_on_corpus():
    for label, type_label, n, rep in build_corpus(10):
        theta = craw_wye_theta(rep.quiver.rs, {0}, n)
        filtration = hn_filtration(rep, theta)
        slopes = filtration.slopes()
        assert all(a > b for a, b in zip(slopes, slopes[1:])), label
        total_r = sum(layer.dims.r for layer in filtration.layers)
        total_v = tuple(
            sum(layer.dims.v[i] for layer in filtration.layers)
            for i in rep.quiver.rs.vertices
        )
        assert DimVector(total_r, total_v) == rep.dims
        for layer in filtration.layers:
            assert layer.jh_dims  # at least one stable factor per layer
            layer_total = layer.dims.total()
            assert sum(sum(key) for key in layer.jh_dims) == layer_total


def test_hn_first_layer_is_slope_semistable_in_isolation():
    # the maximal destabilizer has no submodule of strictly larger slope
    from quiverstab.stabcheck import _max_destabilizer, _pairings

    for label, type_label, n, rep in build_corpus(8):
        theta = craw_wye_theta(rep.quiver.rs, {0}, n)
        lattice = submodule_lattice(rep)
        node = lattice.nodes[_max_destabilizer(lattice, _pairings(lattice, theta))]
        sub = _subrep(rep, node)
        layer_slope = _slope(theta, node.dims)
        for inner in submodule_lattice(sub).nodes:
            if inner.dims.total() > 0:
                assert _slope(theta, inner.dims) <= layer_slope


# -- tangent dimension -------------------------------------------------------------

def test_tangent_dimension_examples(rs_a1):
    rep1 = framed_orbit_sum(rs_a1, [(1, 0)], QQ)
    assert tangent_dimension(rep1) == 2
    rep2 = framed_orbit_sum(rs_a1, [(1, 0), (1, 1)], QQ)
    assert tangent_dimension(rep2) == 4


def test_tangent_rejects_non_modules(rs_a1):
    rep = FramedRep(
        framed_quiver(rs_a1),
        QQ,
        DimVector(1, (1, 1)),
        {"e:0-1": [[1]], "e*:1-0": [[1]]},
    )
    with pytest.raises(NotAModule):
        tangent_dimension(rep)
    with pytest.raises(UnsupportedField):
        tangent_dimension(framed_orbit_sum(rs_a1, [(1, 0)], PrimeField(3)))


def test_stable_implies_semistable_everywhere():
    for label, type_label, n, rep in build_corpus(10):
        theta = craw_wye_theta(rep.quiver.rs, {0}, n)
        report = stability_report(rep, theta)
        if report.stable:
            assert report.semistable
