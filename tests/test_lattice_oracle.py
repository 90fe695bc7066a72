"""The atom-closure lattice engine against the earlier pairwise engine.

``reference_lattice`` keeps the earlier closure under pairwise sums, the
pairwise containment test, and HN/JH by rebuilt sub- and quotient
lattices.  Both must agree on node order, containment, report verdicts
with witnesses, and full HN filtrations at every chamber theta_J.
"""

import itertools

import pytest

from corpus import build_corpus
from reference_lattice import reference_hn, reference_lattice, reference_report

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    craw_wye_theta,
    framed_quiver,
    hn_filtration,
    stability_report,
    submodule_lattice,
)
from quiverstab.errors import LatticeTooLarge
from quiverstab.fieldops import PrimeField


def _zero_arrow(type_label, v, p):
    """The representation (1, v) over F_p with every arrow zero."""
    rs = build_root_system(DynkinType.parse(type_label))
    return FramedRep(framed_quiver(rs), PrimeField(p), DimVector(1, v), {})


def _chamber_thetas(rep, n):
    rs = rep.quiver.rs
    rest = rs.vertices[1:]
    return [
        craw_wye_theta(rs, {0, *K}, n)
        for k in range(len(rest) + 1)
        for K in itertools.combinations(rest, k)
    ]


# zero-arrow modules (1, n delta) as (type, n, v = n delta, p); the last has 50 nodes
ZERO_ARROW = [("A1", 1, (1, 1), 2), ("A1", 1, (1, 1), 3), ("A2", 1, (1, 1, 1), 2),
              ("A2", 1, (1, 1, 1), 3), ("A1", 2, (2, 2), 2)]
CASES = [(label, rep, n) for label, _, n, rep in build_corpus(12)] + [
    (f"zero-{t}-n{n}-F{p}", _zero_arrow(t, v, p), n) for t, n, v, p in ZERO_ARROW
]


@pytest.mark.parametrize("label, rep, n", CASES, ids=[case[0] for case in CASES])
def test_engines_agree(label, rep, n):
    lattice = submodule_lattice(rep)
    nodes, relations = reference_lattice(rep)
    assert [(node.bases, node.dims) for node in lattice.nodes] == [
        (node.bases, node.dims) for node in nodes
    ]
    assert lattice.relations == relations
    for theta in _chamber_thetas(rep, n):
        report = stability_report(rep, theta)
        semistable, stable, witness = reference_report(rep, theta)
        assert (report.semistable, report.stable) == (semistable, stable)
        assert (report.witness and report.witness.bases) == (witness and witness.bases)
        assert hn_filtration(rep, theta) == reference_hn(rep, theta)


# -- a lattice near the node cap -----------------------------------------------------

def _subspace_counts(d, p):
    """Number of subspaces of F_p^d of each dimension k = 0..d (Gaussian binomials)."""
    out = []
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        out.append(num // den)
    return out


def _containment_pairs(d, p):
    """Pairs U <= V of subspaces of F_p^d, equal pairs included."""
    return sum(
        count * sum(_subspace_counts(k, p)) for k, count in enumerate(_subspace_counts(d, p))
    )


def test_zero_arrow_lattice_near_the_cap():
    # every family of per-vertex subspaces is a submodule when all arrows vanish
    rep = _zero_arrow("A1", (3, 3), 2)
    dims = (1, 3, 3)
    expected_nodes = 1
    expected_pairs = 1
    for d in dims:
        expected_nodes *= sum(_subspace_counts(d, 2))
        expected_pairs *= _containment_pairs(d, 2)
    assert expected_nodes == 512
    lattice = submodule_lattice(rep)
    assert len(lattice) == expected_nodes
    assert len(lattice.relations) == expected_pairs - expected_nodes
    with pytest.raises(LatticeTooLarge):
        submodule_lattice(rep, node_cap=expected_nodes - 1)
