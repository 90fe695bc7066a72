"""Exhaustive submodule lattices and exact stability certification.

Over a small prime field every submodule of a framed representation is a
sum of cyclic submodules, and a cyclic submodule is determined by a seed
vector supported at a single vertex (the vertex idempotents belong to the
path algebra).  The atoms of the lattice are the distinct spins of the
per-vertex seed lines; every node is a sum of atoms, so closing the atoms
under joins with one atom at a time reaches the whole lattice, which keeps
the search exact and exhaustive at desk scale.  Each node records the set
of atoms it contains as an int bitset, and containment of nodes is
containment of their bitsets.  Within one build, each distinct echelon
basis is interned once as a small int id, a node is the tuple of its
per-vertex ids, and one join sums two ids: it extends the first's reduced
basis with the second's rows, once per distinct pair.

The atoms come from one walk over the line graph, where each seed line
points at the lines of its nonzero arrow images.  The spin of a line is
the span of the lines it reaches, so all lines of one strongly connected
component share one span: the join of the spans of the components below
it (Tarjan's walk lists those first) and of its own lines.
:func:`spin` spins arbitrary seeds by the plain work-list closure.

Stability verdicts and destabilizer witnesses come from walking that
lattice.  Harder-Narasimhan and Jordan-Hoelder filtrations walk intervals
[U, W] of the same lattice, which are the submodule lattices of the
subquotients W/U, so each certificate builds one lattice.  The walks pair
theta with each node once, as an int over theta's common denominator, and
compare quotient slopes by cross-multiplying those ints; only the printed
layers get a Fraction slope.  The verdicts certify the prime-field
reduction only; the report says so explicitly.

The moduli tangent dimension at an exact rational module is its number of
arrow entries minus twice the rank of the closed-form relation Jacobian.
That Jacobian is built on integer numerators over one common denominator
and ranked mod a large prime; only a rank short of full is taken again,
exactly, over Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache, cached_property
from operator import itemgetter, sub

from .errors import (
    IndexMismatch,
    LatticeTooLarge,
    NoFraming,
    NotAModule,
    UnsupportedField,
)
from .fieldops import (
    MAX_PRIME,
    QQ,
    PrimeField,
    Rationals,
    dot,
    echelon_insert,
    mat_vec,
    rank,
    reduce_against,
    rref,
)
from .quiverrep import DimVector, FramedRep, INF, _integral_form, is_pi_bar_module
from .stability import StabilityVector

DEFAULT_DIM_CAPS = {2: 12, 3: 8, 5: 6}
DEFAULT_NODE_CAP = 4096


def _vertex_order(rep: FramedRep):
    return (INF,) + rep.quiver.rs.vertices


def _arrow_table(rep: FramedRep):
    """Per vertex position, the (head position, matrix) of each arrow out of it.

    Arrows with a zero matrix are left out: they carry no vector anywhere.
    """
    order = _vertex_order(rep)
    at = {v: k for k, v in enumerate(order)}
    table = [[] for _ in order]
    for a in rep.quiver.arrows:
        mat = rep.matrix(a.label)
        if any(map(any, mat)):
            table[at[a.tail]].append((at[a.head], mat))
    return table


def _line_components(field, dims, table):
    """The seed lines, their successors and the line graph's components.

    ``dims`` are the dimensions per vertex position and ``table`` the
    :func:`_arrow_table` of the representation.  Returns ``lines``, a list of
    (vertex position, lead-one vector); ``succ``, per line the lines of its
    nonzero arrow images; and ``components``, the strongly connected
    components as lists of lines, each after every component it reaches
    (an iterative Tarjan walk).
    """
    lines = []
    index_at = []  # per vertex position, lead-one vector -> line index
    for k, d in enumerate(dims):
        at = {}
        # itertools.product order: the lead one from the last position to the first
        for lead in reversed(range(d)):
            for rest in itertools.product(range(field.p), repeat=d - 1 - lead):
                vec = (0,) * lead + (1,) + rest
                at[vec] = len(lines)
                lines.append((k, vec))
        index_at.append(at)
    succ = []
    for k, vec in lines:
        out = []
        for head, mat in table[k]:
            image = mat_vec(field, mat, vec)
            lead = next((x for x in image if x), 0)
            if lead:
                if lead != 1:
                    inv = field.inv(lead)
                    image = field.reduce([inv * x for x in image])
                out.append(index_at[head][image])
        succ.append(out)

    components = []
    done = [False] * len(lines)  # set when the line's component is finished
    order = [None] * len(lines)  # visit number
    low = [0] * len(lines)
    stack = []
    seen = 0
    for root in range(len(lines)):
        if order[root] is not None:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        walk = [(root, iter(succ[root]))]
        while walk:
            u, edges = walk[-1]
            for w in edges:
                if order[w] is None:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    walk.append((w, iter(succ[w])))
                    break
                if not done[w] and order[w] < low[u]:  # w is on the stack
                    low[u] = order[w]
            else:
                walk.pop()
                if walk and low[u] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[u]
                if low[u] == order[u]:
                    at = stack.index(u)
                    components.append(stack[at:])
                    del stack[at:]
                    for w in components[-1]:
                        done[w] = True
    return lines, succ, components


def spin(rep: FramedRep, seeds):
    """Smallest arrow-invariant per-vertex subspace family containing seeds.

    ``seeds`` is an iterable of (vertex, coefficient vector) pairs; the
    result maps each vertex to the reduced echelon basis of its component.
    """
    field = rep.field
    order = _vertex_order(rep)
    at = {v: k for k, v in enumerate(order)}
    work = []
    for vertex, vec in seeds:
        if vertex not in at or len(vec) != rep.dims.at(vertex):
            raise IndexMismatch(f"seed at {vertex!r} has the wrong length")
        work.append((at[vertex], tuple(field.coerce(x) for x in vec)))
    table = _arrow_table(rep)
    bases = [([], []) for _ in order]
    while work:
        k, vec = work.pop()
        rows, pivots = bases[k]
        if echelon_insert(field, rows, pivots, vec):
            for head, mat in table[k]:
                work.append((head, mat_vec(field, mat, vec)))
    return {v: tuple(rows) for v, (rows, _) in zip(order, bases)}


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
    def totals(self) -> tuple:
        """Per node, its total dimension."""
        return tuple([node.dims.total() for node in self.nodes])

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


def submodule_lattice(rep: FramedRep) -> SubmoduleLattice:
    """All submodules of a representation over a small prime field.

    Refuses (LatticeTooLarge) rather than sampling whenever the total
    dimension exceeds the per-prime cap or the node count exceeds
    ``DEFAULT_NODE_CAP``, so a returned lattice is always complete; the
    refusal names the atoms, nodes and distinct joins it had reached.

    The atoms are the distinct spans of the seed lines, numbered in line
    order (vertices in (inf, 0, 1, ...) order, lines in ``itertools.product``
    order of their lead-one vectors).  Each distinct echelon basis gets an
    int id on first sight, shared by all vertices, and a node is keyed by
    the tuple of its ids.  One join adds two subspaces, once per distinct
    pair of ids: unless the first is zero, it extends the first's reduced
    basis with the second's rows (the ``onto`` of :func:`rref`).  Joining
    the spans below each component of :func:`_line_components` and its own
    lines gives every line's span; the closure joins a node with an atom at
    each of the atom's vertices.  A node's bitset is the OR of per-vertex
    bitsets, computed once per (vertex, id).
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

    node_cap = DEFAULT_NODE_CAP
    order = _vertex_order(rep)
    # Every distinct echelon basis, at any vertex, gets an id on first sight;
    # a signature is the tuple of the ids of a node's bases in vertex order.
    ids = {}  # echelon rows -> id
    basis_rows = []  # per id, the echelon rows
    basis_pivots = []  # per id, their pivot columns
    basis_dim = []  # per id, the number of rows

    def intern(rows, pivots):
        i = ids.get(rows)
        if i is None:
            i = ids[rows] = len(basis_rows)
            basis_rows.append(rows)
            basis_pivots.append(pivots)
            basis_dim.append(len(rows))
        return i

    nodes = {}  # signature -> atom bitset, set once atoms are known
    atoms = []  # per atom bit, the signature of the spin of its seed line
    seeds = [[] for _ in order]  # per vertex position, (atom bit, seed) of the atoms seeded there
    joined = {}  # (subspace id, atom id) at one vertex -> id of their sum

    def add(sig):
        """Record a new signature, refusing once the cap is reached."""
        if len(nodes) >= node_cap:
            raise LatticeTooLarge(
                f"lattice exceeds {node_cap} nodes: {len(atoms)} atoms, "
                f"{len(nodes)} nodes found, {len(joined)} distinct joins"
            )
        nodes[sig] = None

    def summed(memo, h, i):
        """The id of the sum of subspaces h and i, memoised in ``memo`` on (h, i)."""
        j = memo.get((h, i))
        if j is None:  # 0 + i is i; otherwise extend h's reduced basis by i's rows
            onto = (basis_rows[h], basis_pivots[h])
            j = memo[h, i] = intern(*rref(field, basis_rows[i], onto)) if basis_dim[h] else i
        return j

    zero = (intern((), ()),) * len(order)
    add(zero)
    lines, succ, components = _line_components(field, rep.dims.key(), _arrow_table(rep))
    span_of = [None] * len(lines)  # per line, the signature of its spin
    spanned = {}  # the atom pass's own joins, kept out of the refusal's count
    for members in components:
        below = {span_of[w] for u in members for w in succ[u]}
        below.discard(None)  # edges inside the component
        sig = list(below.pop() if below else zero)
        for other in below:
            for k, i in enumerate(other):
                if basis_dim[i]:
                    sig[k] = summed(spanned, sig[k], i)
        for u in members:
            k, vec = lines[u]
            sig[k] = summed(spanned, sig[k], intern((vec,), (vec.index(1),)))
        sig = tuple(sig)
        for u in members:
            span_of[u] = sig
    for (k, vec), sig in zip(lines, span_of):
        if sig not in nodes:
            add(sig)
            seeds[k].append((len(atoms), vec))
            atoms.append(sig)

    # A node is arrow-invariant, so it contains an atom exactly when it
    # contains the atom's seed at the atom's vertex: its bitset is the OR over
    # vertices k of held[k][id at k], the vertex-k atoms whose seeds lie there.
    held = [{} for _ in order]

    def mask_of(sig):
        mask = 0
        for k, i in enumerate(sig):
            bits = held[k].get(i)
            if bits is None:
                rows, pivots = basis_rows[i], basis_pivots[i]
                bits = held[k][i] = sum(
                    1 << bit for bit, seed in seeds[k]
                    if not any(reduce_against(field, rows, pivots, seed))
                )
            mask |= bits
        return mask

    nodes[zero] = 0
    for sig in atoms:
        nodes[sig] = mask_of(sig)
    # the join with atom a touches only the vertices where a is nonzero
    supports = [[(k, i) for k, i in enumerate(sig) if basis_dim[i]] for sig in atoms]

    fresh = list(atoms)
    while fresh:
        frontier, fresh = fresh, []
        for sig_a in frontier:
            mask_a = nodes[sig_a]
            for bit, support in enumerate(supports):
                if mask_a >> bit & 1:
                    continue
                sig = list(sig_a)
                for k, i in support:
                    h = sig_a[k]
                    j = joined.get((h, i))
                    if j is None:
                        j = summed(joined, h, i)
                    sig[k] = j
                sig = tuple(sig)
                if sig not in nodes:
                    add(sig)
                    nodes[sig] = mask_of(sig)
                    fresh.append(sig)

    dim_vectors = {}  # dimension key -> its one DimVector
    entries = []
    for sig, mask in nodes.items():
        key = tuple([basis_dim[i] for i in sig])
        dims = dim_vectors.get(key)
        if dims is None:
            dims = dim_vectors[key] = DimVector(key[0], key[1:])
        bases = tuple([basis_rows[i] for i in sig])
        entries.append(((sum(key), key, bases), SubmoduleNode(bases=bases, dims=dims), mask))
    entries.sort(key=itemgetter(0))
    return SubmoduleLattice(
        rep=rep,
        nodes=tuple(node for _, node, _ in entries),
        masks=tuple(mask for _, _, mask in entries),
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
    pairings = _pairings(lattice, theta)
    for node, value in zip(lattice.nodes, pairings):
        if value < 0:
            return StabilityReport(False, False, node, caveat)
    for node, value, total in zip(lattice.nodes, pairings, lattice.totals):
        if value == 0 and 0 < total < whole:
            return StabilityReport(True, False, node, caveat)
    return StabilityReport(True, True, None, caveat)


def is_framing_cyclic(rep: FramedRep) -> bool:
    """True when the framing line generates the whole representation."""
    if rep.dims.r != 1:
        raise NoFraming("the representation has no framing component")
    span = spin(rep, [(INF, (rep.field.one,))])
    return tuple(len(span[v]) for v in _vertex_order(rep)) == rep.dims.key()


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


def _pairings(lattice: SubmoduleLattice, theta: StabilityVector) -> tuple:
    """Per node, its pairing with theta times ``theta.den``, as an int.

    Same value as :func:`pair_dim` times the positive ``theta.den``, so
    signs and ratios of pairings are those of the exact rationals.
    """
    if len(lattice.rep.dims.v) != len(theta.nums):
        raise IndexMismatch("dimension vector does not match the vertex set")
    nums = theta.nums
    framing = dot(theta.context, nums)
    return tuple([dot(node.dims.v, nums) - node.dims.r * framing for node in lattice.nodes])


def _interval(lattice: SubmoduleLattice, lo: int, hi: int):
    """Indices of the nodes W with node lo properly inside W inside node hi."""
    masks = lattice.masks
    return [
        j for j in range(lo + 1, hi + 1)
        if not masks[lo] & ~masks[j] and not masks[j] & ~masks[hi]
    ]


def _max_destabilizer(lattice: SubmoduleLattice, pairings, base: int = 0) -> int:
    """Index of the maximal destabilizing W above node ``base``, scored on W/base.

    ``pairings`` are the node pairings of :func:`_pairings`.  The slope of
    W/base is (p_base - p_W) / (t_W - t_base) over ``theta.den``, with t the
    total dimension, so slopes compare by cross-multiplying ints.  The
    submodule of maximal slope and, among those, maximal dimension is
    unique; nodes come in (total, dimension vector) order, so on a full tie
    the first node, of the smaller dimension vector, stays.
    """
    totals = lattice.totals
    p_base, t_base = pairings[base], totals[base]
    # every quotient has a positive total, so the first one beats 0/0
    best, best_num, best_den = None, 0, 0
    for j in _interval(lattice, base, len(totals) - 1):
        num, den = p_base - pairings[j], totals[j] - t_base
        ahead = num * best_den - best_num * den
        if ahead > 0 or (ahead == 0 and den > best_den):
            best, best_num, best_den = j, num, den
    return best


def _jordan_holder(lattice: SubmoduleLattice, pairings, lo: int, hi: int, num: int, den: int):
    """Sorted dimension keys of the stable factors of the semistable hi/lo.

    The layer's slope is num / den over ``theta.den``.  Each step takes the
    smallest node over the current base whose quotient has that slope; that
    quotient is stable, and the multiset of stable factors does not depend
    on the choice (Jordan-Hoelder).
    """
    nodes, totals = lattice.nodes, lattice.totals
    out = []
    while lo != hi:
        # nodes are in (total, dims) order, so the first match is minimal
        lo_next = next(
            j for j in _interval(lattice, lo, hi)
            if (pairings[lo] - pairings[j]) * den == num * (totals[j] - totals[lo])
        )
        out.append(tuple(map(sub, nodes[lo_next].dims.key(), nodes[lo].dims.key())))
        lo = lo_next
    return tuple(sorted(out))


def hn_filtration(rep: FramedRep, theta: StabilityVector) -> HNFiltration:
    """Harder-Narasimhan filtration by repeated maximal destabilization.

    Each step takes, over the current base U, the submodule W whose
    quotient W/U has maximal slope (negated pairing over total dimension),
    largest total dimension among ties, so slopes come out strictly
    decreasing and a stable module is a single layer.  Layers carry the
    dimension multiset of their stable factors.  All steps walk intervals
    of one submodule lattice, on the integer node pairings of
    :func:`_pairings`; only the layers get a ``Fraction`` slope.
    """
    if rep.dims.total() == 0:
        return HNFiltration(layers=())
    lattice = submodule_lattice(rep)
    pairings = _pairings(lattice, theta)
    nodes, totals = lattice.nodes, lattice.totals
    top = len(nodes) - 1  # the whole module: the only node of full dimension
    layers = []
    base = 0  # the zero submodule
    while base != top:
        step = _max_destabilizer(lattice, pairings, base)
        num, den = pairings[base] - pairings[step], totals[step] - totals[base]
        low, high = nodes[base].dims, nodes[step].dims
        layers.append(
            HNLayer(
                dims=DimVector(high.r - low.r, tuple(map(sub, high.v, low.v))),
                slope=Fraction(num, den * theta.den),
                jh_dims=_jordan_holder(lattice, pairings, base, step, num, den),
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


@cache
def _modular_field() -> PrimeField:
    """F_p for p = MAX_PRIME, built on first use: testing p for primality takes milliseconds."""
    return PrimeField(MAX_PRIME)


def tangent_dimension(rep: FramedRep) -> int:
    """Moduli tangent dimension at an exact module representation.

    The tangent space is ker dmu_x / im rho_x, where dmu_x is the relation
    linearisation (:func:`_relation_jacobian`) and rho_x the infinitesimal
    gauge action at the affine vertices, so its dimension is the number of
    arrow entries minus rank dmu_x minus rank rho_x.  The identity
    tr(g dmu_x(xi)) = omega(rho_x(g), xi) makes dmu_x the adjoint of rho_x
    under the trace form and the symplectic form, both nondegenerate, so
    the two ranks are equal and one rank suffices.

    The rank is that of the integral form's Jacobian, den times the
    rational one.  It is taken mod p = MAX_PRIME first: the rank mod p is
    at most the rank over Q, which is at most the smaller side of the
    matrix, so a p-rank that reaches that side is exact.  Otherwise (a
    singular point, or entries that vanish mod p) the same integer columns
    are ranked over Q.
    """
    if not isinstance(rep.field, Rationals):
        raise UnsupportedField("tangent computation runs over the rationals")
    ints, _ = _integral_form(rep)
    if not is_pi_bar_module(ints):
        raise NotAModule("relations do not vanish at this representation")
    columns = _relation_jacobian(ints)
    nonzero = [col for col in columns if any(col)]  # no rank; a zero summand has many
    full = min(len(nonzero), sum(d * d for d in rep.dims.v))
    r = rank(_modular_field(), nonzero)
    if r < full:
        r = rank(QQ, nonzero)
    return len(columns) - 2 * r
