"""Finite subgroups of SL(2, C), their character tables, and McKay graphs.

Everything is exact arithmetic over the prime field F_q, with q the least
prime = 1 mod |G| (Dixon 1967, Schneider 1990).  F_q holds a primitive
|G|-th root of unity zeta, which stands for exp(2 pi i / |G|), so one
generator table, written with ring operations only, gives each group both
as complex 2x2 matrices and as matrices over F_q.  The group is
enumerated over F_q, keyed by the residues of its elements.  The left
action of each generator, recorded once by the enumeration, gives an
integer Cayley table; conjugacy classes, power maps and the class-sum
structure constants come from that table, and each inverse is the
adjugate of its residue.  Each complex element is computed once, as the
product along its discovery chain; floats serve only the public view of
the elements and their order (by ``_key``).

The common eigenvectors of the integer class matrices over F_q are the
central characters mod q, found by splitting eigenspaces at the roots of
characteristic polynomials, with the classes of highest element order
tried first.  For t prime to |G|, g -> chi(g^t) is again a character (its
Galois conjugate), so every eigenline found gives its conjugates through
the power maps; a simple root takes its eigenline from those, with no
nullspace.  The norm equation gives each irrep dimension, and each
character value is lifted to C through the power maps.  A linear
character takes a root of unity zeta_o^j at g of order o, and j is read
from a table of discrete logarithms; in higher dimension the multiplicity
of every root of unity among the eigenvalues of rho(g) is a discrete
Fourier transform mod q, read exactly because it lies in [0, dim].
Either way the value is one float sum over the multiplicity vector.  The
natural character is the trace of each residue, and McKay multiplicities
are read mod q the same way.  No float comparison decides anything but
the order of elements and irreps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import GroupTooLarge, InvalidRank, NoIsomorphism, RoundingFailure
from .fieldops import PrimeField, _is_prime, dot, mat_mul, nullspace, reduce_against, rref
from .rootsys import MAX_GROUP_ORDER, DynkinType, RootSystem, parse_int

_KEY_DIGITS = 9

# the binary polyhedral groups: family -> (label, order, rank of the E type)
_POLYHEDRAL = {
    "binary_tetrahedral": ("2T", 24, 6),
    "binary_octahedral": ("2O", 48, 7),
    "binary_icosahedral": ("2I", 120, 8),
}
_FAMILIES = ("cyclic", "binary_dihedral", *_POLYHEDRAL)


@dataclass(frozen=True)
class GroupSpec:
    """One of the finite subgroups of SL(2, C), up to conjugacy."""

    family: str
    m: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidRank(f"unknown group family {self.family!r}")
        if self.family in _POLYHEDRAL:
            if self.m != 0:  # one spec per group: its facts do not read m
                raise InvalidRank(f"{self.label()} takes no m, got {self.m}")
        elif self.m < 2:
            raise InvalidRank(f"{self.family.replace('_', ' ')} groups need m >= 2")
        if self.order() > MAX_GROUP_ORDER:
            raise GroupTooLarge(
                f"{self.label()} has order {self.order()} > {MAX_GROUP_ORDER}"
            )

    def order(self) -> int:
        if self.family == "cyclic":
            return self.m
        if self.family == "binary_dihedral":
            return 4 * self.m
        return _POLYHEDRAL[self.family][1]

    def designated_dynkin(self) -> DynkinType:
        """The ADE type whose affine diagram should equal the McKay graph."""
        if self.family == "cyclic":
            return DynkinType("A", self.m - 1)
        if self.family == "binary_dihedral":
            return DynkinType("D", self.m + 2)
        return DynkinType("E", _POLYHEDRAL[self.family][2])

    def label(self) -> str:
        if self.family == "cyclic":
            return f"cyclic:{self.m}"
        if self.family == "binary_dihedral":
            return f"bd:{self.m}"
        return _POLYHEDRAL[self.family][0]

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        text = text.strip()
        for prefix, family in (("cyclic:", "cyclic"), ("bd:", "binary_dihedral")):
            if text.lower().startswith(prefix):
                try:
                    m = parse_int(text[len(prefix):])
                except ValueError:
                    raise InvalidRank(f"cannot parse group spec {text!r}") from None
                return cls(family, m)
        for family, (label, _, _) in _POLYHEDRAL.items():
            if text.lower() == label.lower():
                return cls(family)
        raise InvalidRank(f"cannot parse group spec {text!r}")


# -- matrices as ((a, b), (c, d)) tuples over C or F_q ---------------------------

def _mat_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _key(x):
    """The sort key of a complex element: its entries rounded to nine digits."""
    (a, b), (c, d) = x
    return (
        round(a.real, _KEY_DIGITS), round(a.imag, _KEY_DIGITS),
        round(b.real, _KEY_DIGITS), round(b.imag, _KEY_DIGITS),
        round(c.real, _KEY_DIGITS), round(c.imag, _KEY_DIGITS),
        round(d.real, _KEY_DIGITS), round(d.imag, _KEY_DIGITS),
    )


def _generators(spec: GroupSpec, root=lambda k: cmath.exp(2j * cmath.pi / k), half=0.5):
    """The generator matrices, written with ring operations only.

    ``root(k)`` stands for exp(2 pi i / k) and ``half`` for 1/2: the
    defaults give complex matrices, and a root of unity and the inverse of
    2 in F_q give their images over F_q (entries still to be reduced).  The
    binary polyhedral generators are the unit quaternions i, j and
    (-1 + i + j + k)/2, then (1 + i)/sqrt 2 = root(8) for 2O, or
    (i + j/phi + phi k)/2 for 2I with 1/phi = root(5) + root(5)^4 and
    phi = 1 + 1/phi; a + bi + cj + dk is ((a + bi, c + di), (-c + di, a - bi)).
    """
    if spec.family == "cyclic":
        z = root(spec.m)
        return [((z, 0), (0, z ** (spec.m - 1)))]
    if spec.family == "binary_dihedral":
        z = root(2 * spec.m)
        return [((z, 0), (0, z ** (2 * spec.m - 1))), ((0, 1), (-1, 0))]
    i = root(4)
    gens = [
        ((i, 0), (0, -i)),
        ((0, 1), (-1, 0)),
        ((half * (i - 1), half * (i + 1)), (half * (i - 1), -half * (i + 1))),
    ]
    if spec.family == "binary_octahedral":
        z = root(8)
        gens.append(((z, 0), (0, z ** 7)))
    elif spec.family == "binary_icosahedral":
        rho = root(5) + root(5) ** 4
        c, d = half * rho, half * (1 + rho)
        gens.append(((half * i, c + d * i), (d * i - c, -half * i)))
    return gens


def _enumerate_group(spec: GroupSpec, q: int, zeta: int):
    """The elements in ``_key`` order, their residues mod q, and the integer group tables.

    A breadth-first search from 1 multiplies each residue x, once, on the
    left by every generator s over F_q, recording the left action
    x -> s x and, for each element y it finds, the pair (s, x) with
    y = s x; the complex y is then computed, once, from the complex s and
    x.  Residues are flat tuples (a, b, c, d) while the search runs.
    ``mul[i][j]`` is the index of ``elements[i] @ elements[j]``: the row of
    1 is 0, 1, 2, ..., and the row of y = s x is the row of x pushed
    through the action of s, since (s x) z = s (x z).  The inverse of
    (a, b, c, d), of determinant 1, is its adjugate (d, -b, -c, a).
    Returns (elements, residues, mul, inv, one, gens): the inverse of each
    element, and the indices of 1 and the generators.
    """
    order = spec.order()
    complex_gens = _generators(spec)
    residue_gens = [
        tuple(v % q for row in g for v in row)
        for g in _generators(spec, lambda k: pow(zeta, order // k, q), (q + 1) // 2)
    ]
    one = (1, 0, 0, 1)
    seen = {one: ((complex(1), complex(0)), (complex(0), complex(1)))}  # residue -> complex
    action = [{} for _ in residue_gens]  # x -> s x, one dict per generator
    parent = {}  # y -> (generator position, x) with y = s x
    boundary = [one]
    while boundary and len(seen) <= order:
        fresh = []
        for t, (s0, s1, s2, s3) in enumerate(residue_gens):
            act = action[t]
            for x in boundary:
                x0, x1, x2, x3 = x
                y = act[x] = (
                    (s0 * x0 + s1 * x2) % q, (s0 * x1 + s1 * x3) % q,
                    (s2 * x0 + s3 * x2) % q, (s2 * x1 + s3 * x3) % q,
                )
                if y not in seen:
                    seen[y] = _mat_mul(complex_gens[t], seen[x])
                    parent[y] = (t, x)
                    fresh.append(y)
        boundary = fresh
    if len(seen) != order:
        raise RoundingFailure(f"the generators over F_{q} do not give {order} elements")
    residues = sorted(seen, key=lambda x: _key(seen[x]))
    index = {x: i for i, x in enumerate(residues)}
    left = [[index[act[x]] for x in residues] for act in action]
    rows = {one: tuple(range(order))}
    for y, (t, x) in parent.items():  # in discovery order: x before s x
        rows[y] = itemgetter(*rows[x])(left[t])
    mul = tuple([rows[x] for x in residues])
    inv = tuple([index[d, -b % q, -c % q, a] for a, b, c, d in residues])
    e = index[one]
    return (
        [seen[x] for x in residues],
        [((a, b), (c, d)) for a, b, c, d in residues],
        mul,
        inv,
        e,
        tuple(act[e] for act in left),
    )


# -- exact group tables -------------------------------------------------------

def _conjugacy_classes(mul, inv, one, gens):
    """Classes as sorted index tuples: the identity first, then by size.

    A class is an orbit under conjugation by the generators.  Element
    indices follow the ``_key`` order of the elements, so ties in size go
    to the class whose least element has the least key.
    """
    unassigned = set(range(len(mul)))
    classes = []
    while unassigned:
        seed = min(unassigned)
        orbit = {seed}
        work = [seed]
        while work:
            x = work.pop()
            for s in gens:
                y = mul[mul[s][x]][inv[s]]
                if y not in orbit:
                    orbit.add(y)
                    work.append(y)
        classes.append(tuple(sorted(orbit)))
        unassigned -= orbit
    classes.sort(key=lambda cls: (cls[0] != one, len(cls), cls[0]))
    return tuple(classes)


def _class_structure_constants(mul, classes, class_of):
    """``a[i][j][k]``: the pairs (x, y) in C_i x C_j with x y = z, for z in C_k."""
    r = len(classes)
    sizes = [len(c) for c in classes]
    shared = [k for k in range(r) if sizes[k] > 1]  # the counts that need dividing
    a = []
    for ca in classes:
        plane = []
        for cb in classes:
            count = [0] * r
            for x in ca:
                row = mul[x]
                for y in cb:
                    count[class_of[row[y]]] += 1
            for k in shared:
                n, rest = divmod(count[k], sizes[k])
                if rest:
                    raise RoundingFailure("class algebra structure constants are inconsistent")
                count[k] = n
            plane.append(count)
        a.append(plane)
    return a


# -- eigenvalues over F_q -----------------------------------------------------

def _charpoly(mat, q):
    """Characteristic polynomial of a square matrix over F_q.

    Reduces to upper Hessenberg form by similarity, then runs the
    three-term recurrence over its leading principal minors (Cohen, A
    Course in Computational Algebraic Number Theory, Algorithm 2.2.9).
    """
    n = len(mat)
    h = [list(row) for row in mat]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        pivot_inv = pow(h[m][m - 1], -1, q)
        for i in range(m + 1, n):
            u = h[i][m - 1] * pivot_inv % q
            if u:
                h[i] = [(x - u * y) % q for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % q
    minors = [[1]]
    for m in range(1, n + 1):
        p = [0] + minors[m - 1]
        for k, c in enumerate(minors[m - 1]):
            p[k] -= h[m - 1][m - 1] * c
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % q
            coef = t * h[i - 1][m - 1]
            for k, c in enumerate(minors[i - 1]):
                p[k] -= coef * c
        minors.append([x % q for x in p])
    return minors[n]


def _value(f, x, q):
    """f(x) mod q, for f given by its coefficients from the constant term up."""
    value = 0
    for c in reversed(f):
        value = (value * x + c) % q
    return value


def _roots(f, q):
    """The roots in F_q of f, given by its coefficients from the constant term up."""
    return [lam for lam in range(q) if _value(f, lam, q) == 0]


# -- the character table over F_q ---------------------------------------------

def _splitting_prime(order):
    """The least prime q = 1 mod |G|, and a primitive |G|-th root of unity zeta.

    zeta stands for exp(2 pi i / |G|), so F_q holds the image of every
    matrix entry and character value of G.  As q > |G| >= 2, q > 2 sqrt|G|:
    every integer in [0, sqrt|G|] is told apart from its negative mod q.
    """
    q = order + 1
    while not _is_prime(q):
        q += order
    primes = [p for p in range(2, order + 1) if order % p == 0 and _is_prime(p)]
    zetas = (pow(a, (q - 1) // order, q) for a in range(2, q))
    return q, next(z for z in zetas if all(pow(z, order // p, q) != 1 for p in primes))


def _central_characters(structure, q, powers, order):
    """Common eigenvectors (omega_k) of the class matrices over F_q, omega_0 = 1.

    The class matrices commute, so every joint eigenspace found so far is
    invariant under the next matrix; its eigenspaces inside the subspace
    come from the matrix restricted to the subspace, whose coordinates in
    an rref basis are the entries at the pivot columns.  The first split
    is of the whole space, whose matrix is the class matrix itself.

    Classes of higher element order are tried first: their class matrices
    tend to have more distinct eigenvalues.  For t prime to |G|, the Galois
    conjugate of a character is g -> chi(g^t), so each eigenline omega
    found puts its conjugates (omega[perm_t[k]])_k in a pool, perm_t[k]
    the class of g_k^t.  A simple root lambda takes the pooled eigenline
    of eigenvalue lambda that lies in the space, with no nullspace.
    """
    field = PrimeField(q)
    r = len(structure)
    perms = {
        tuple([seq[t % len(seq)] for seq in powers])
        for t in range(1, order) if math.gcd(t, order) == 1
    }
    pool = {}  # Galois conjugates of the eigenlines found, not yet taken
    found = set()
    spaces = [None]  # None is the whole space
    for ci in sorted(range(1, r), key=lambda k: -len(powers[k])):
        if len(spaces) == r:
            break
        mat = structure[ci]
        split = []
        for space in spaces:
            if space is None:
                restricted = mat
            elif len(space[0]) == 1:
                split.append(space)
                continue
            else:
                basis, pivots = space
                restricted = mat_mul(field, [mat[p] for p in pivots], tuple(zip(*basis)))
            f = _charpoly(restricted, q)
            df = [k * c for k, c in enumerate(f)][1:]
            for lam in _roots(f, q):
                if _value(df, lam, q):  # a simple root: its eigenline may be pooled
                    w = next((
                        w for w in pool if w[ci] == lam
                        and (space is None or not any(reduce_against(field, *space, w)))
                    ), None)
                    if w is not None:
                        del pool[w]
                        found.add(w)
                        split.append(((w,), (0,)))
                        continue
                shifted = [
                    [(x - lam) % q if u == t else x for t, x in enumerate(row)]
                    for u, row in enumerate(restricted)
                ]
                kernel = nullspace(field, shifted, len(restricted))
                line = rref(field, kernel if space is None else mat_mul(field, kernel, space[0]))
                if line[1] == (0,):
                    found.add(line[0][0])
                    for perm in perms:
                        w = tuple([line[0][0][k] for k in perm])
                        if w not in found:
                            pool[w] = None
                split.append(line)
        spaces = split
    if len(spaces) != r or any(space is None or space[1] != (0,) for space in spaces):
        raise RoundingFailure(f"the class matrices do not split into {r} eigenlines over F_{q}")
    return [basis[0] for basis, _ in spaces]


def _power_classes(mul, one, classes, class_of):
    """``powers[k][t]``: the class of g^t for g the first element of C_k.

    Each list runs over one period, so its length is the order of g.
    """
    powers = []
    for cls in classes:
        seq, x = [], one
        while True:
            seq.append(class_of[x])
            x = mul[x][cls[0]]
            if x == one:
                break
        powers.append(seq)
    return powers


def _lift(psi, d, powers, tables, q):
    """A character mod q, of dimension d, as complex values on the classes.

    rho(g) has eigenvalues exp(2 pi i j / o) for g of order o.  For d = 1,
    psi(g) = zeta_o^j itself, and j is read from a table of discrete
    logarithms.  Otherwise the multiplicity of each is
    (1/o) sum_t chi(g^t) zeta_o^(-j t), computed mod q, and lies in
    [0, d] < q, so the residue is the multiplicity itself.  Both give the
    complex value as the same float sum over the multiplicity vector.
    """
    chi = []
    for k, seq in enumerate(powers):
        log, lifts, twiddles, roots, o_inv = tables[len(seq)]
        if d == 1:
            j = log.get(psi[k])
            if j is None:
                raise RoundingFailure("a linear character value is no root of unity")
            chi.append(lifts[j])
            continue
        values = [psi[c] for c in seq]
        mult = [dot(row, values) * o_inv % q for row in twiddles]
        if sum(mult) != d:
            raise RoundingFailure("eigenvalue multiplicities do not add up to the dimension")
        chi.append(_combine(mult, roots))
    return chi


def _combine(mult, roots):
    """sum_j mult[j] exp(2 pi i j / o), as one float sum in j order."""
    return sum(m * root for m, root in zip(mult, roots))


def _lift_tables(orders, order, zeta, q):
    """Per element order o: the discrete logarithm zeta_o^j -> j and the lift
    of each zeta_o^j, then zeta_o^(-j t), exp(2 pi i j / o) and 1 / o for the
    transform."""
    tables = {}
    for o in orders:
        z = pow(zeta, order // o, q)
        zpow = [1]
        for _ in range(1, o):
            zpow.append(zpow[-1] * z % q)
        roots = [cmath.exp(2j * math.pi * j / o) for j in range(o)]
        lifts = [_combine([int(i == j) for i in range(o)], roots) for j in range(o)]
        twiddles = [[zpow[-j * t % o] for t in range(o)] for j in range(o)]
        tables[o] = ({x: j for j, x in enumerate(zpow)}, lifts, twiddles, roots, pow(o, -1, q))
    return tables


def _character_table(residues, mul, inv, one, classes, q, zeta):
    """Characters (class x irrep, complex), irrep dimensions, McKay adjacency.

    ``residues`` are the elements over F_q, and zeta is the primitive
    |G|-th root of unity there.  Irrep 0 is trivial; the rest are sorted by
    dimension, then by their rounded character values.  Only the lifted
    values are floats.
    """
    order = len(mul)
    r = len(classes)
    sizes = [len(c) for c in classes]
    class_of = [0] * order
    for ci, cls in enumerate(classes):
        for i in cls:
            class_of[i] = ci
    powers = _power_classes(mul, one, classes, class_of)
    star = [class_of[inv[cls[0]]] for cls in classes]
    size_inv = [pow(s, -1, q) for s in sizes]

    structure = _class_structure_constants(mul, classes, class_of)
    reduced = []  # (d, psi) per irrep
    for omega in _central_characters(structure, q, powers, order):
        # norm equation: d^2 = |G| / sum_k omega_k omega_k* / |C_k| mod q; its
        # roots are +-d and only one of them lies in [1, sqrt|G|] < q / 2
        norm = dot([w * s for w, s in zip(omega, size_inv)], [omega[k] for k in star]) % q
        d = next(
            (d for d in range(1, math.isqrt(order) + 1) if d * d * norm % q == order % q),
            None,
        )
        if d is None:
            raise RoundingFailure("the norm equation has no integral dimension")
        reduced.append((d, [d * w * s % q for w, s in zip(omega, size_inv)]))
    tables = _lift_tables({len(seq) for seq in powers}, order, zeta, q)
    irreps = [(d, psi, _lift(psi, d, powers, tables, q)) for d, psi in reduced]
    irreps.sort(key=lambda ir: (
        not (ir[0] == 1 and all(v == 1 for v in ir[1])),
        ir[0],
        tuple((round(v.real, 6), round(v.imag, 6)) for v in ir[2]),
    ))

    # <chi_i * std, chi_j> mod q, with std the character of the natural rep
    std = [(x[0][0] + x[1][1]) % q for x in (residues[cls[0]] for cls in classes)]
    order_inv = pow(order, -1, q)
    weights = [sizes[k] * std[k] * order_inv % q for k in range(r)]
    starred = [[psi[k] for k in star] for _, psi, _ in irreps]
    adjacency = []
    for _, psi_i, _ in irreps:
        weighted = [w * x for w, x in zip(weights, psi_i)]
        row = tuple([dot(weighted, psi_j) % q for psi_j in starred])
        if any(s > 2 for s in row):
            raise RoundingFailure("tensor multiplicity is not in {0, 1, 2}")
        adjacency.append(row)
    table = tuple(tuple(chi[k] for _, _, chi in irreps) for k in range(r))
    return table, tuple(d for d, _, _ in irreps), tuple(adjacency)


@dataclass(frozen=True)
class McKayData:
    """Enumerated group, character table, and McKay graph adjacency.

    Irrep index 0 is the trivial representation; ``characters`` is indexed
    (class, irrep); ``adjacency`` counts occurrences of irrep j inside
    (standard 2-dim rep) tensor (irrep i).
    """

    spec: GroupSpec
    elements: tuple
    conjugacy_classes: tuple
    irrep_dims: tuple
    characters: tuple
    adjacency: tuple

    def order(self) -> int:
        return len(self.elements)


def build_mckay(spec: GroupSpec) -> McKayData:
    """Enumerate the group and compute its McKay correspondence data."""
    q, zeta = _splitting_prime(spec.order())
    elements, residues, mul, inv, one, gens = _enumerate_group(spec, q, zeta)
    classes = _conjugacy_classes(mul, inv, one, gens)
    table, dims, adjacency = _character_table(residues, mul, inv, one, classes, q, zeta)
    if sum(d * d for d in dims) != len(elements):
        raise RoundingFailure("sum of squared dimensions misses the group order")
    return McKayData(
        spec=spec,
        elements=tuple(elements),
        conjugacy_classes=classes,
        irrep_dims=dims,
        characters=table,
        adjacency=adjacency,
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    adjacency_ok: bool
    dims_ok: bool
    sum_squares_ok: bool
    matching: tuple  # matching[irrep index] = affine vertex


def _isomorphisms(adj_a, adj_b):
    """All vertex bijections with sigma(0) = 0 carrying adj_a onto adj_b.

    Vertices are placed breadth-first along the edges of adj_a (any vertex
    left unreached comes last), and a vertex reached along an edge may only
    go to a neighbour of its parent's image, so a cycle is walked instead of
    searched.  The order in which bijections come out is unspecified.
    """
    n = len(adj_a)
    if adj_a[0][0] != adj_b[0][0]:
        return
    order, parent = [0], [None] * n
    for u in order:  # grows while it is walked
        for w in range(1, n):
            if adj_a[u][w] and w not in order:
                parent[w] = u
                order.append(w)
    order += [w for w in range(n) if w not in order]
    sigma = [0] + [-1] * (n - 1)
    used = [False] * n
    used[0] = True
    yield from _extend(adj_a, adj_b, order, parent, sigma, used, 1)


def _extend(adj_a, adj_b, order, parent, sigma, used, depth):
    """The bijections of :func:`_isomorphisms` that extend ``sigma`` past ``depth``.

    A module-level generator, so the search holds no reference to itself
    and is freed by reference counting alone.
    """
    n = len(adj_a)
    if depth == n:
        yield tuple(sigma)
        return
    u = order[depth]
    p = parent[u]
    placed = order[:depth]
    for v in range(1, n):
        if used[v] or (p is not None and not adj_b[sigma[p]][v]):
            continue
        if adj_a[u][u] != adj_b[v][v]:
            continue
        if all(adj_a[u][w] == adj_b[v][sigma[w]] for w in placed):
            sigma[u] = v
            used[v] = True
            yield from _extend(adj_a, adj_b, order, parent, sigma, used, depth + 1)
            used[v] = False
            sigma[u] = -1


def verify_correspondence(data: McKayData, rs: RootSystem) -> CorrespondenceReport:
    """Match the McKay graph against ``2*Id - affine Cartan`` of ``rs``.

    The matching fixes the trivial representation at the extending vertex 0
    and is found by adjacency-preserving search; it is canonical only up to
    diagram automorphism, so the report carries the matching actually used:
    the lexicographically least matching that carries dimensions to delta,
    or, when none does, the lexicographically greatest one.
    """
    n = len(rs.vertices)
    if len(data.irrep_dims) != n:
        raise NoIsomorphism(
            f"{len(data.irrep_dims)} irreps cannot match {n} affine vertices"
        )
    target = tuple(
        tuple((2 if i == j else 0) - rs.affine_cartan[i][j] for j in range(n))
        for i in range(n)
    )
    sum_squares_ok = sum(d * d for d in rs.delta) == data.order()

    matchings = list(_isomorphisms(data.adjacency, target))
    if not matchings:
        raise NoIsomorphism("no adjacency isomorphism fixing the trivial vertex")
    with_dims = [
        sigma
        for sigma in matchings
        if all(data.irrep_dims[w] == rs.delta[sigma[w]] for w in range(n))
    ]
    if with_dims:
        return CorrespondenceReport(True, True, sum_squares_ok, min(with_dims))
    return CorrespondenceReport(True, False, sum_squares_ok, max(matchings))


def projective_mckay(dynkin: DynkinType):
    """The two-vertex subset {0, r} when -1 lies in the matching subgroup.

    Present exactly in types A_n with n odd, D_n, and E_n; the companion
    vertex r is the middle of the chain in type A and the trivalent vertex
    otherwise.  Returns None when the group has no central involution.
    """
    if dynkin.family == "A":
        if dynkin.rank % 2 == 0:
            return None
        return (0, (dynkin.rank + 1) // 2)
    if dynkin.family == "D":
        return (0, dynkin.rank - 2)
    return (0, 4)
