"""The earlier lattice engine, kept as a test oracle for ``stabcheck``.

It closes the seed spins under pairwise sums of every new node with every
existing node, tests containment by reduction for every pair of nodes,
and computes Harder-Narasimhan and Jordan-Hoelder data by rebuilding the
lattice of each sub- and quotient representation.  Slow (quadratic in
the node count) but simple; ``test_lattice_oracle.py`` compares it with
the interval-based engine in :mod:`quiverstab.stabcheck`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from quiverstab.fieldops import mat_vec, reduce_against, rref
from quiverstab.quiverrep import DimVector, FramedRep
from quiverstab.stabcheck import (
    HNFiltration,
    HNLayer,
    SubmoduleNode,
    _vertex_order,
    spin,
)
from quiverstab.stability import StabilityVector, pair_dim


def _signature(rep, family):
    return tuple(family[v] for v in _vertex_order(rep))


def _sig_dims(sig) -> DimVector:
    return DimVector(len(sig[0]), tuple(len(rows) for rows in sig[1:]))


def _slope(theta: StabilityVector, dims: DimVector) -> Fraction:
    """Destabilization slope: the negated pairing per unit dimension.

    Semistability demands nonnegative pairings on submodules, so the
    destabilizing submodules are the ones with the most negative pairing;
    negating makes "larger slope = more destabilizing" and stable modules
    come out as a single filtration layer.
    """
    return Fraction(-pair_dim(theta, dims)) / dims.total()


def _pivots(field, rows):
    return [next(j for j, x in enumerate(row) if x) for row in rows]


def _contained(field, small, big) -> bool:
    for rows_s, rows_b in zip(small, big):
        if not rows_s:
            continue
        pivots = _pivots(field, rows_b)
        for row in rows_s:
            residue = reduce_against(field, list(rows_b), pivots, row)
            if any(residue):
                return False
    return True


def reference_lattice(rep: FramedRep):
    """(nodes, relations) of the complete submodule lattice, pairwise closure."""
    field = rep.field
    order = _vertex_order(rep)
    nodes = {}

    def add(family):
        sig = _signature(rep, family)
        if sig not in nodes:
            nodes[sig] = family
            return sig
        return None

    add({v: () for v in order})
    fresh = []
    for vertex in order:
        d = rep.dims.at(vertex)
        for vec in itertools.product(range(field.p), repeat=d):
            lead = next((x for x in vec if x != 0), None)
            if lead != 1:
                continue
            sig = add(spin(rep, [(vertex, vec)]))
            if sig is not None:
                fresh.append(sig)

    def join(fam_a, fam_b):
        return {v: rref(field, fam_a[v] + fam_b[v])[0] for v in order}

    while fresh:
        frontier, fresh = fresh, []
        existing = list(nodes.keys())
        for sig_a in frontier:
            for sig_b in existing:
                sig = add(join(nodes[sig_a], nodes[sig_b]))
                if sig is not None:
                    fresh.append(sig)

    sigs = sorted(nodes, key=lambda sig: (_sig_dims(sig).total(), _sig_dims(sig).key(), sig))
    node_objs = tuple(SubmoduleNode(bases=sig, dims=_sig_dims(sig)) for sig in sigs)
    relations = []
    for i, a in enumerate(node_objs):
        for j, b in enumerate(node_objs):
            if a.dims.total() >= b.dims.total():
                continue
            if _contained(field, a.bases, b.bases):
                relations.append((i, j))
    return node_objs, tuple(relations)


def reference_report(rep: FramedRep, theta):
    """(semistable, stable, witness node or None) by a scan of the lattice."""
    nodes, _ = reference_lattice(rep)
    whole = rep.dims.total()
    for node in nodes:
        if pair_dim(theta, node.dims) < 0:
            return False, False, node
    for node in nodes:
        if 0 < node.dims.total() < whole and pair_dim(theta, node.dims) == 0:
            return True, False, node
    return True, True, None


# -- sub- and quotient representations -------------------------------------------

def _coords_in_rref(field, rows, vec):
    """Coordinates of vec in the span of reduced echelon rows (must lie in it)."""
    coords = tuple(vec[p] for p in _pivots(field, rows))
    residue = list(vec)
    for c, row in zip(coords, rows):
        residue = field.reduce([x - c * y for x, y in zip(residue, row)])
    if any(residue):
        raise AssertionError("vector is not in the subspace")
    return coords


def _subrep(rep: FramedRep, node: SubmoduleNode) -> FramedRep:
    """The submodule ``node`` as a representation in the coordinates of its bases."""
    field = rep.field
    basis = dict(zip(_vertex_order(rep), node.bases))
    matrices = {}
    for a in rep.quiver.arrows:
        rows_h = basis[a.head]
        cols = [
            _coords_in_rref(field, rows_h, mat_vec(field, rep.matrix(a.label), row))
            if rows_h else ()
            for row in basis[a.tail]
        ]
        matrices[a.label] = tuple(
            tuple(col[i] for col in cols) for i in range(len(rows_h))
        )
    return FramedRep(rep.quiver, field, DimVector(node.dims.r, node.dims.v), matrices)


def _quotient_rep(rep: FramedRep, node: SubmoduleNode) -> FramedRep:
    """The quotient by ``node`` in the non-pivot coordinates at each vertex."""
    field = rep.field
    complements = {}
    for v, rows in zip(_vertex_order(rep), node.bases):
        pivots = _pivots(field, rows)
        free = [j for j in range(rep.dims.at(v)) if j not in set(pivots)]
        complements[v] = (free, rows, pivots)

    def project(v, vec):
        free, rows, pivots = complements[v]
        residue = reduce_against(field, list(rows), pivots, vec)
        return tuple(residue[j] for j in free)

    dims = DimVector(
        rep.dims.r - node.dims.r,
        tuple(rep.dims.v[i] - node.dims.v[i] for i in rep.quiver.rs.vertices),
    )
    matrices = {}
    for a in rep.quiver.arrows:
        cols = []
        for j in complements[a.tail][0]:
            unit = tuple(
                field.one if k == j else field.zero
                for k in range(rep.dims.at(a.tail))
            )
            cols.append(project(a.head, mat_vec(field, rep.matrix(a.label), unit)))
        matrices[a.label] = tuple(
            tuple(col[i] for col in cols) for i in range(dims.at(a.head))
        )
    return FramedRep(rep.quiver, field, dims, matrices)


# -- Harder-Narasimhan and Jordan-Hoelder by rebuilt lattices -----------------------

def _max_destabilizer(nodes, theta):
    best = None
    best_key = None
    for node in nodes:
        total = node.dims.total()
        if total == 0:
            continue
        key = (_slope(theta, node.dims), total, tuple(-x for x in node.dims.key()))
        if best_key is None or key > best_key:
            best, best_key = node, key
    return best


def _jh_dims(rep: FramedRep, theta, slope):
    out = []
    current = rep
    while current.dims.total() > 0:
        nodes, _ = reference_lattice(current)
        candidates = [
            node
            for node in nodes
            if node.dims.total() > 0 and _slope(theta, node.dims) == slope
        ]
        node = min(candidates, key=lambda n: (n.dims.total(), n.dims.key(), n.bases))
        out.append(node.dims.key())
        current = _quotient_rep(current, node)
    return tuple(sorted(out))


def reference_hn(rep: FramedRep, theta) -> HNFiltration:
    """HN filtration by maximal destabilization, recursing on quotients."""
    layers = []
    current = rep
    while current.dims.total() > 0:
        nodes, _ = reference_lattice(current)
        node = _max_destabilizer(nodes, theta)
        slope = _slope(theta, node.dims)
        layers.append(
            HNLayer(
                dims=node.dims,
                slope=slope,
                jh_dims=_jh_dims(_subrep(current, node), theta, slope),
            )
        )
        current = _quotient_rep(current, node)
    return HNFiltration(layers=tuple(layers))
