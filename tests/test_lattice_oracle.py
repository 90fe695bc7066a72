"""The atom-closure lattice engine against the earlier pairwise engine.

``reference_lattice`` keeps the earlier closure under pairwise sums, the
pairwise containment test, and HN/JH by rebuilt sub- and quotient
lattices.  Both must agree on node order, containment, report verdicts
with witnesses, and full HN filtrations at every chamber theta_J.  The
inputs are the corpus, zero-arrow modules, and Hypothesis-drawn
representations with dense or sparse random arrow matrices (not
necessarily modules), whose line graphs have components of several lines
and chains of components.
"""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpus import build_corpus
from reference_lattice import reference_hn, reference_lattice, reference_report

from quiverstab import (
    INF,
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    craw_wye_theta,
    framed_quiver,
    hn_filtration,
    spin,
    stability_report,
    stabcheck,
    submodule_lattice,
)
from quiverstab.errors import LatticeTooLarge
from quiverstab.fieldops import PrimeField, rank


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


# zero-arrow modules (1, n delta) as (type, n, v = n delta, p); the last two have 50
# and 128 nodes
ZERO_ARROW = [("A1", 1, (1, 1), 2), ("A1", 1, (1, 1), 3), ("A2", 1, (1, 1, 1), 2),
              ("A2", 1, (1, 1, 1), 3), ("A1", 2, (2, 2), 2), ("A1", 2, (2, 2), 5)]
CASES = [(label, rep, n) for label, _, n, rep in build_corpus(12)] + [
    (f"zero-{t}-n{n}-F{p}", _zero_arrow(t, v, p), n) for t, n, v, p in ZERO_ARROW
]


# total dimension caps for drawn representations, so the pairwise reference stays quick
DRAWN_TOTAL = {2: 6, 3: 5, 5: 4}


@st.composite
def representations(draw):
    """A representation of A1 or A2 over F2, F3 or F5 with random arrow matrices.

    Dimensions are 1 or 2 per vertex while the total stays under its cap
    for p.  Each arrow is zero, sparse (each entry drawn from 0, 0, 1, ...,
    p - 1) or dense.
    """
    rs = build_root_system(DynkinType.parse(draw(st.sampled_from(["A1", "A2"]))))
    p = draw(st.sampled_from(sorted(DRAWN_TOTAL)))
    r = draw(st.integers(0, 1))
    v = []
    for _ in rs.vertices:
        room = min(2, DRAWN_TOTAL[p] - r - sum(v))
        v.append(draw(st.integers(min(1, room), room)))
    dims = DimVector(r, tuple(v))
    quiver = framed_quiver(rs)
    entry = {
        "zero": st.just(0),
        "sparse": st.sampled_from([0, 0] + list(range(1, p))),
        "dense": st.integers(0, p - 1),
    }
    matrices = {}
    for a in quiver.arrows:
        kind = entry[draw(st.sampled_from(sorted(entry)))]
        matrices[a.label] = [[draw(kind) for _ in range(dims.at(a.tail))]
                             for _ in range(dims.at(a.head))]
    return FramedRep(quiver, PrimeField(p), dims, matrices)


def _engines_agree(rep, n):
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


@pytest.mark.parametrize("label, rep, n", CASES, ids=[case[0] for case in CASES])
def test_engines_agree(label, rep, n):
    _engines_agree(rep, n)


@settings(max_examples=60, deadline=None)
@given(rep=representations())
def test_engines_agree_on_drawn_representations(rep):
    _engines_agree(rep, 1)


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


def test_zero_arrow_lattice_near_the_cap(monkeypatch):
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
    monkeypatch.setattr(stabcheck, "DEFAULT_NODE_CAP", expected_nodes - 1)
    with pytest.raises(LatticeTooLarge):
        submodule_lattice(rep)


def test_default_cap_refusal_is_cheap():
    # 8,978 nodes uncapped; 1 + 15 + 15 atoms from the lines of F_2^1, F_2^4, F_2^4
    rep = _zero_arrow("A1", (4, 4), 2)
    start = time.monotonic()
    with pytest.raises(LatticeTooLarge) as info:
        submodule_lattice(rep)
    assert time.monotonic() - start < 2.0
    message = str(info.value)
    assert message == (
        "lattice exceeds 4096 nodes: 31 atoms, 4096 nodes found, 766 distinct joins"
    )


# -- atom bitsets against ranks alone --------------------------------------------------

def _atoms(rep):
    """The distinct spins of the per-vertex seed lines, numbered as the lattice numbers them."""
    order = (INF,) + rep.quiver.rs.vertices
    atoms = []
    for vertex in order:
        for vec in itertools.product(range(rep.field.p), repeat=rep.dims.at(vertex)):
            if next((x for x in vec if x), None) == 1:
                span = spin(rep, [(vertex, vec)])
                sig = tuple(span[v] for v in order)
                if sig not in atoms:
                    atoms.append(sig)
    return atoms


MASK_CASES = [(label, rep) for label, _, _, rep in build_corpus(12)] + [
    ("zero-A1-F2-512", _zero_arrow("A1", (3, 3), 2)),
    ("zero-A2-F3-432", _zero_arrow("A2", (2, 2, 2), 3)),
]


def _masks_match_rank_containment(rep):
    # atom a lies in node x exactly when adding a's rows to x's basis at every
    # vertex leaves the rank there unchanged
    lattice = submodule_lattice(rep)
    atoms = _atoms(rep)
    field = rep.field
    for node, mask in zip(lattice.nodes, lattice.masks):
        assert mask >> len(atoms) == 0
        for bit, atom in enumerate(atoms):
            contained = all(
                rank(field, rows) == rank(field, rows + extra)
                for rows, extra in zip(node.bases, atom)
            )
            assert contained == bool(mask >> bit & 1)


@pytest.mark.parametrize("label, rep", MASK_CASES, ids=[case[0] for case in MASK_CASES])
def test_masks_match_rank_containment(label, rep):
    _masks_match_rank_containment(rep)


@settings(max_examples=150, deadline=None)
@given(rep=representations())
def test_masks_match_rank_containment_on_drawn_representations(rep):
    _masks_match_rank_containment(rep)
