"""Exhaustive submodule lattices and exact stability certification.

Over a small prime field every submodule of a framed representation is a
sum of cyclic submodules, and a cyclic submodule is determined by a seed
vector supported at a single vertex (the vertex idempotents belong to the
path algebra).  The atoms of the lattice are the distinct spins of the
per-vertex seed lines; every node is a sum of atoms, so closing the atoms
under joins with one atom at a time reaches the whole lattice, which keeps
the search exact and exhaustive at desk scale.  Each node records the set
of atoms it contains as an int bitset, and containment of nodes is
containment of their bitsets.  Within one build, each distinct per-vertex
join is eliminated once and each distinct per-vertex subspace is tested
against the atom seeds once; both memos are dropped when the build returns.

Stability verdicts and destabilizer witnesses come from walking that
lattice.  Harder-Narasimhan and Jordan-Hoelder filtrations walk intervals
[U, W] of the same lattice, which are the submodule lattices of the
subquotients W/U, so each certificate builds one lattice.  The verdicts
certify the prime-field reduction only; the report says so explicitly.

The moduli tangent dimension at an exact rational module is its number of
arrow entries minus twice the rank of the closed-form relation Jacobian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache, cached_property, partial

from .errors import (
    IndexMismatch,
    LatticeTooLarge,
    NoFraming,
    NotAModule,
    UnsupportedField,
)
from .fieldops import (
    PrimeField,
    Rationals,
    echelon_insert,
    leading_index,
    mat_vec,
    rank,
    reduce_against,
    rref,
)
from .quiverrep import DimVector, FramedRep, INF, is_pi_bar_module
from .stability import StabilityVector, pair_dim

DEFAULT_DIM_CAPS = {2: 12, 3: 8, 5: 6}
DEFAULT_NODE_CAP = 4096


def _vertex_order(rep: FramedRep):
    return (INF,) + rep.quiver.rs.vertices


def spin(rep: FramedRep, seeds):
    """Smallest arrow-invariant per-vertex subspace family containing seeds.

    ``seeds`` is an iterable of (vertex, coefficient vector) pairs; the
    result maps each vertex to the reduced echelon basis of its component.
    """
    field = rep.field
    by_tail = {}
    for a in rep.quiver.arrows:
        by_tail.setdefault(a.tail, []).append(a)

    bases = {v: ([], []) for v in _vertex_order(rep)}
    work = []
    for vertex, vec in seeds:
        if vertex not in bases or len(vec) != rep.dims.at(vertex):
            raise IndexMismatch(f"seed at {vertex!r} has the wrong length")
        work.append((vertex, tuple(field.coerce(x) for x in vec)))

    while work:
        vertex, vec = work.pop()
        rows, pivots = bases[vertex]
        if not echelon_insert(field, rows, pivots, vec):
            continue
        for a in by_tail.get(vertex, ()):
            if rep.dims.at(a.head) == 0:
                continue
            work.append((a.head, mat_vec(field, rep.matrix(a.label), vec)))
    return {v: tuple(rows) for v, (rows, _) in bases.items()}


def _signature(rep, family):
    return tuple(family[v] for v in _vertex_order(rep))


def _sig_dims(sig) -> DimVector:
    return DimVector(len(sig[0]), tuple(len(rows) for rows in sig[1:]))


@dataclass(frozen=True)
class SubmoduleNode:
    """One submodule: reduced echelon bases per vertex plus its dimensions."""

    bases: tuple  # rows per vertex, in (inf, 0, 1, ...) order
    dims: DimVector


@dataclass(frozen=True)
class SubmoduleLattice:
    rep: FramedRep
    nodes: tuple
    # per node, the atoms it contains as a bitset: node i lies in node j
    # exactly when masks[i] & ~masks[j] == 0
    masks: tuple = dc_field(repr=False)

    def __len__(self):
        return len(self.nodes)

    @cached_property
    def relations(self) -> tuple:
        """Pairs (i, j) with node i properly contained in node j."""
        # nodes are sorted by total dimension, so a proper superset comes later
        masks = self.masks
        return tuple(
            (i, j)
            for i in range(len(masks))
            for j in range(i + 1, len(masks))
            if not masks[i] & ~masks[j]
        )


def submodule_lattice(rep: FramedRep, node_cap: int = DEFAULT_NODE_CAP) -> SubmoduleLattice:
    """All submodules of a representation over a small prime field.

    Refuses (LatticeTooLarge) rather than sampling whenever the total
    dimension exceeds the per-prime cap or the node count exceeds
    ``node_cap``, so a returned lattice is always complete; the refusal
    names the atoms, nodes and distinct joins it had reached.

    Joins and atom memberships are memoised for the length of the build:
    the join of a node with an atom is the node with its subspace at each
    of the atom's vertices replaced by their sum, eliminated once per
    distinct pair of subspaces, and a node's bitset is the OR of per-vertex
    bitsets, computed once per (vertex, subspace).
    """
    field = rep.field
    if not isinstance(field, PrimeField):
        raise UnsupportedField("lattice enumeration requires a prime field")
    cap = DEFAULT_DIM_CAPS.get(field.p)
    if cap is None:
        raise LatticeTooLarge(f"no dimension cap configured for p = {field.p}")
    total = rep.dims.total()
    if total > cap:
        raise LatticeTooLarge(
            f"total dimension {total} exceeds the cap {cap} for p = {field.p}"
        )

    order = _vertex_order(rep)
    nodes = {}  # signature -> atom bitset, set once atoms are known
    atoms = []  # per atom bit, the signature of the spin of its seed line
    seeds = [[] for _ in order]  # per vertex position, (atom bit, seed) of the atoms seeded there
    joined = {}  # (subspace, atom rows) at one vertex -> echelon rows of their sum

    def add(sig):
        if sig not in nodes:
            if len(nodes) >= node_cap:
                raise LatticeTooLarge(
                    f"lattice exceeds {node_cap} nodes: {len(atoms)} atoms, "
                    f"{len(nodes)} nodes found, {len(joined)} distinct joins eliminated"
                )
            nodes[sig] = None
            return sig
        return None

    zero = tuple(() for _ in order)
    add(zero)
    for k, vertex in enumerate(order):
        d = rep.dims.at(vertex)
        for vec in itertools.product(range(field.p), repeat=d):
            lead = next((x for x in vec if x != 0), None)
            if lead != 1:  # one seed per line through the origin
                continue
            sig = add(_signature(rep, spin(rep, [(vertex, vec)])))
            if sig is not None:
                seeds[k].append((len(atoms), vec))
                atoms.append(sig)

    # A node is arrow-invariant, so it contains an atom exactly when it
    # contains the atom's seed at the atom's vertex: its bitset is the OR over
    # vertices k of held[k][rows at k], the vertex-k atoms whose seeds lie there.
    held = [{} for _ in order]

    def mask_of(sig):
        mask = 0
        for k, rows in enumerate(sig):
            bits = held[k].get(rows)
            if bits is None:
                pivots = tuple(leading_index(row) for row in rows)
                bits = held[k][rows] = sum(
                    1 << bit for bit, seed in seeds[k]
                    if not any(reduce_against(field, rows, pivots, seed))
                )
            mask |= bits
        return mask

    nodes[zero] = 0
    for sig in atoms:
        nodes[sig] = mask_of(sig)
    # the join with atom a touches only the vertices where a is nonzero
    supports = [[(k, rows) for k, rows in enumerate(sig) if rows] for sig in atoms]

    fresh = list(atoms)
    while fresh:
        frontier, fresh = fresh, []
        for sig_a in frontier:
            mask_a = nodes[sig_a]
            for bit, support in enumerate(supports):
                if mask_a >> bit & 1:
                    continue
                sig = list(sig_a)
                for k, rows in support:
                    key = (sig_a[k], rows)
                    if key not in joined:
                        joined[key] = rref(field, sig_a[k] + rows)[0]
                    sig[k] = joined[key]
                sig = add(tuple(sig))
                if sig is not None:
                    nodes[sig] = mask_of(sig)
                    fresh.append(sig)

    entries = sorted(
        ((SubmoduleNode(bases=sig, dims=_sig_dims(sig)), mask) for sig, mask in nodes.items()),
        key=lambda entry: (entry[0].dims.total(), entry[0].dims.key(), entry[0].bases),
    )
    return SubmoduleLattice(
        rep=rep,
        nodes=tuple(node for node, _ in entries),
        masks=tuple(mask for _, mask in entries),
    )


@dataclass(frozen=True)
class StabilityReport:
    semistable: bool
    stable: bool
    witness: object  # SubmoduleNode or None
    caveat: str


def stability_report(rep: FramedRep, theta: StabilityVector) -> StabilityReport:
    """Exhaustive (semi)stability check with a destabilizer witness.

    Semistable means every submodule pairs nonnegatively with theta;
    stable additionally requires strict positivity on proper nonzero
    submodules.  The witness is the first violating lattice node in
    (total dimension, dimension vector) order.
    """
    lattice = submodule_lattice(rep)
    whole = rep.dims.total()
    caveat = (
        f"verdict certifies the {rep.field.name}-reduction; "
        "characteristic-zero stability of a lift is not implied"
    )
    value = cache(partial(pair_dim, theta))  # many nodes share a dimension vector
    for node in lattice.nodes:
        if value(node.dims) < 0:
            return StabilityReport(False, False, node, caveat)
    for node in lattice.nodes:
        if 0 < node.dims.total() < whole and value(node.dims) == 0:
            return StabilityReport(True, False, node, caveat)
    return StabilityReport(True, True, None, caveat)


def is_framing_cyclic(rep: FramedRep) -> bool:
    """True when the framing line generates the whole representation."""
    if rep.dims.r != 1:
        raise NoFraming("the representation has no framing component")
    span = spin(rep, [(INF, (rep.field.one,))])
    return _sig_dims(_signature(rep, span)) == rep.dims


# -- Harder-Narasimhan --------------------------------------------------------

@dataclass(frozen=True)
class HNLayer:
    dims: DimVector
    slope: Fraction
    jh_dims: tuple  # multiset of stable-factor dimension vectors, sorted


@dataclass(frozen=True)
class HNFiltration:
    layers: tuple

    def slopes(self):
        return tuple(layer.slope for layer in self.layers)


def _slope(theta: StabilityVector, dims: DimVector) -> Fraction:
    """Destabilization slope: the negated pairing per unit dimension.

    Semistability demands nonnegative pairings on submodules, so the
    destabilizing submodules are the ones with the most negative pairing;
    negating makes "larger slope = more destabilizing" and stable modules
    come out as a single filtration layer.
    """
    return Fraction(-pair_dim(theta, dims)) / dims.total()


def _quotient_dims(big: SubmoduleNode, small: SubmoduleNode) -> DimVector:
    return DimVector(big.dims.r - small.dims.r, tuple(b - s for b, s in zip(big.dims.v, small.dims.v)))


def _interval(lattice: SubmoduleLattice, lo: int, hi: int):
    """Indices of the nodes W with node lo properly inside W inside node hi."""
    masks = lattice.masks
    return [
        j for j in range(lo + 1, hi + 1)
        if not masks[lo] & ~masks[j] and not masks[j] & ~masks[hi]
    ]


def _max_destabilizer(lattice: SubmoduleLattice, slope, base: int = 0) -> int:
    """Index of the maximal destabilizing W above node ``base``, scored on W/base.

    ``slope`` maps a dimension vector to its slope.  The submodule of
    maximal slope and, among those, maximal dimension is unique, so the
    last key entry only orders nodes that cannot tie.
    """
    nodes = lattice.nodes
    best = None
    best_key = None
    for j in _interval(lattice, base, len(nodes) - 1):
        dims = _quotient_dims(nodes[j], nodes[base])
        key = (slope(dims), dims.total(), tuple(-x for x in dims.key()))
        if best_key is None or key > best_key:
            best, best_key = j, key
    return best


def _jordan_holder(lattice: SubmoduleLattice, slope, lo: int, hi: int, layer_slope):
    """Sorted dimension vectors of the stable factors of the semistable hi/lo.

    Each step takes the smallest node over the current base whose quotient
    has the layer's slope; that quotient is stable, and the multiset of
    stable factors does not depend on the choice (Jordan-Hoelder).
    """
    nodes = lattice.nodes
    out = []
    while lo != hi:
        # nodes are in (total, dims) order, so the first match is minimal
        lo_next = next(
            j for j in _interval(lattice, lo, hi)
            if slope(_quotient_dims(nodes[j], nodes[lo])) == layer_slope
        )
        out.append(_quotient_dims(nodes[lo_next], nodes[lo]).key())
        lo = lo_next
    return tuple(sorted(out))


def hn_filtration(rep: FramedRep, theta: StabilityVector) -> HNFiltration:
    """Harder-Narasimhan filtration by repeated maximal destabilization.

    Each step takes, over the current base U, the submodule W whose
    quotient W/U has maximal slope (negated pairing over total dimension),
    largest total dimension among ties, so slopes come out strictly
    decreasing and a stable module is a single layer.  Layers carry the
    dimension multiset of their stable factors.  All steps walk intervals
    of one submodule lattice.
    """
    if rep.dims.total() == 0:
        return HNFiltration(layers=())
    lattice = submodule_lattice(rep)
    slope_of = cache(partial(_slope, theta))  # quotients of many nodes share dims
    nodes = lattice.nodes
    top = len(nodes) - 1  # the whole module: the only node of full dimension
    layers = []
    base = 0  # the zero submodule
    while base != top:
        step = _max_destabilizer(lattice, slope_of, base)
        dims = _quotient_dims(nodes[step], nodes[base])
        slope = slope_of(dims)
        layers.append(
            HNLayer(
                dims=dims,
                slope=slope,
                jh_dims=_jordan_holder(lattice, slope_of, base, step, slope),
            )
        )
        base = step
    return HNFiltration(layers=tuple(layers))


# -- tangent space ------------------------------------------------------------

def _relation_jacobian(rep: FramedRep):
    """Columns of the relation linearisation, one per arrow entry.

    Columns run over the arrows in quiver order and, within an arrow, over
    its entries (i, j) in row-major order; each column lists the relation
    values at the affine vertices in order, every vertex row-major.  The
    relations are quadratic: along the unit bump E at entry (i, j) of an
    original arrow x with partner y, the relation at the head moves by E y
    (row i is row j of y) and the one at the tail by -y E (column j is
    minus column i of y).  A reverse arrow enters every relation with the
    opposite sign, so its column is the negation of the same pattern.
    """
    field = rep.field
    offsets = {}
    size = 0
    for vertex in rep.quiver.rs.vertices:
        offsets[vertex] = size
        size += rep.dims.v[vertex] ** 2
    columns = []
    for a in rep.quiver.arrows:
        y = rep.matrix(a.partner)
        m, n = rep.dims.at(a.head), rep.dims.at(a.tail)
        for i in range(m):
            for j in range(n):
                col = [field.zero] * size
                if a.head != INF:
                    at = offsets[a.head] + i * m
                    col[at:at + m] = y[j]
                if a.tail != INF:
                    for r in range(n):
                        col[offsets[a.tail] + r * n + j] = -y[r][i]
                if not a.original:
                    col = [-x for x in col]
                columns.append(field.reduce(col))
    return columns


def tangent_dimension(rep: FramedRep) -> int:
    """Moduli tangent dimension at an exact module representation.

    The tangent space is ker dmu_x / im rho_x, where dmu_x is the relation
    linearisation (:func:`_relation_jacobian`) and rho_x the infinitesimal
    gauge action at the affine vertices, so its dimension is the number of
    arrow entries minus rank dmu_x minus rank rho_x.  The identity
    tr(g dmu_x(xi)) = omega(rho_x(g), xi) makes dmu_x the adjoint of rho_x
    under the trace form and the symplectic form, both nondegenerate, so
    the two ranks are equal and one exact rational elimination suffices.
    """
    if not isinstance(rep.field, Rationals):
        raise UnsupportedField("tangent computation runs over the rationals")
    if not is_pi_bar_module(rep):
        raise NotAModule("relations do not vanish at this representation")
    columns = _relation_jacobian(rep)
    return len(columns) - 2 * rank(rep.field, columns)
