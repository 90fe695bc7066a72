"""The earlier float McKay path, kept as a test oracle for ``mckay``.

Every product of group elements is a complex 2x2 matrix product keyed by
rounding; conjugacy classes and class structure constants come from
O(|G|^2) such products, and the character table from one float
eigenproblem (numpy) on a random combination of the class matrices.
The McKay graph is matched to the affine diagram by backtracking in
plain vertex order.  ``test_mckay_oracle.py`` compares both paths.
"""

from __future__ import annotations

import math

from quiverstab.errors import NoIsomorphism, RoundingFailure
from quiverstab.mckay import (
    CorrespondenceReport,
    GroupSpec,
    McKayData,
    _generators,
    _key,
    _mat_mul,
)
from quiverstab.rootsys import RootSystem

_MATCH_TOL = 1e-9
_INT_TOL = 1e-6


def _close(x, y, tol):
    return all(
        abs(a - b) <= tol for ra, rb in zip(x, y) for a, b in zip(ra, rb)
    )


def _enumerate_group(spec: GroupSpec):
    gens = _generators(spec)
    seen = {_key(((1, 0), (0, 1))): ((complex(1), complex(0)), (complex(0), complex(1)))}
    boundary = list(seen.values())
    while boundary:
        fresh = []
        for g in gens:
            for x in boundary:
                y = _mat_mul(g, x)
                k = _key(y)
                if k not in seen:
                    seen[k] = y
                    fresh.append(y)
        boundary = fresh
        if len(seen) > 4 * spec.order():
            raise RoundingFailure("group closure did not terminate at the expected order")
    elements = [seen[k] for k in sorted(seen)]
    if len(elements) != spec.order():
        raise RoundingFailure(
            f"enumerated {len(elements)} elements, expected {spec.order()}"
        )
    for idx, g in enumerate(elements):
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if abs(det - 1) > _INT_TOL:
            raise RoundingFailure("generator table produced a non-SL(2) element")
        for other in elements[idx + 1 :]:
            # sorted by _key, which leads with this entry rounded: no later
            # element can be close once it is this far away
            if other[0][0].real > g[0][0].real + 2 * _INT_TOL:
                break
            if _close(g, other, _INT_TOL):
                raise RoundingFailure("two enumerated elements are numerically equal")
    return elements


def _mat_inv(x):
    # determinant one throughout, so the adjugate is the inverse
    return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


def _conjugacy_classes(elements):
    index_of = {_key(g): i for i, g in enumerate(elements)}
    unassigned = set(range(len(elements)))
    classes = []
    while unassigned:
        seed = min(unassigned, key=lambda i: _key(elements[i]))
        orbit = {seed}
        work = [seed]
        while work:
            i = work.pop()
            for h in elements:
                c = _mat_mul(_mat_mul(h, elements[i]), _mat_inv(h))
                j = index_of[_key(c)]
                if j not in orbit:
                    orbit.add(j)
                    work.append(j)
        classes.append(tuple(sorted(orbit)))
        unassigned -= orbit
    identity = ((1, 0), (0, 1))
    classes.sort(
        key=lambda cls: (
            not _close(elements[cls[0]], identity, _MATCH_TOL),
            len(cls),
            _key(elements[cls[0]]),
        )
    )
    return tuple(classes)


def _class_structure_constants(elements, classes):
    index_of = {_key(g): i for i, g in enumerate(elements)}
    class_of = {}
    for ci, cls in enumerate(classes):
        for i in cls:
            class_of[i] = ci
    r = len(classes)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for ci, ca in enumerate(classes):
        for cj, cb in enumerate(classes):
            count = [0] * r
            for i in ca:
                for j in cb:
                    z = _mat_mul(elements[i], elements[j])
                    count[class_of[index_of[_key(z)]]] += 1
            for ck in range(r):
                size = len(classes[ck])
                if count[ck] % size != 0:
                    raise RoundingFailure("class algebra structure constants are inconsistent")
                a[ci][cj][ck] = count[ck] // size
    return a


def _character_table(elements, classes):
    """Irreducible characters as a (class x irrep) float-complex table."""
    import numpy as np  # here, so the search oracle below runs without numpy

    order = len(elements)
    r = len(classes)
    sizes = [len(c) for c in classes]
    structure = _class_structure_constants(elements, classes)
    mats = [np.array(structure[i], dtype=float) for i in range(r)]

    chars = None
    for attempt in range(8):
        rng = np.random.default_rng(2024 + attempt)
        coeffs = rng.standard_normal(r)
        combined = sum(c * m for c, m in zip(coeffs, mats))
        eigvals, eigvecs = np.linalg.eig(combined)
        gaps = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(r)
        if gaps.min() < 1e-7:
            continue
        columns = []
        for idx in range(r):
            u = eigvecs[:, idx]
            u = u / u[0]  # identity class is first; central character is 1 there
            norm = sum(abs(u[j]) ** 2 / sizes[j] for j in range(r))
            dim = math.sqrt(order / norm)
            if abs(dim - round(dim)) > _INT_TOL:
                columns = None
                break
            chi = [dim * u[j] / sizes[j] for j in range(r)]
            columns.append(tuple(chi))
        if columns is not None:
            chars = columns
            break
    if chars is None:
        raise RoundingFailure("character eigenproblem did not separate")

    def dim_of(col):
        return int(round(col[0].real))

    def is_trivial(col):
        return all(abs(v - 1) < _INT_TOL for v in col)

    trivial = [col for col in chars if is_trivial(col)]
    if len(trivial) != 1:
        raise RoundingFailure("could not locate the trivial character")
    rest = sorted(
        (col for col in chars if not is_trivial(col)),
        key=lambda col: (
            dim_of(col),
            tuple((round(v.real, 6), round(v.imag, 6)) for v in col),
        ),
    )
    ordered = trivial + rest
    # table indexed class x irrep
    return tuple(tuple(ordered[w][k] for w in range(r)) for k in range(r))


def reference_build_mckay(spec: GroupSpec) -> McKayData:
    """Enumerate the group and compute its McKay data along the float path."""
    elements = _enumerate_group(spec)
    classes = _conjugacy_classes(elements)
    sizes = [len(c) for c in classes]
    order = len(elements)
    table = _character_table(elements, classes)
    r = len(classes)

    dims = []
    for w in range(r):
        d = table[0][w]
        if abs(d.imag) > _INT_TOL or abs(d.real - round(d.real)) > _INT_TOL:
            raise RoundingFailure("irrep dimension is not an integer")
        dims.append(int(round(d.real)))
    if sum(d * d for d in dims) != order:
        raise RoundingFailure("sum of squared dimensions misses the group order")

    std = [
        elements[cls[0]][0][0] + elements[cls[0]][1][1] for cls in classes
    ]
    adjacency = []
    for i in range(r):
        row = []
        for j in range(r):
            s = sum(
                sizes[k] * table[k][i] * std[k] * table[k][j].conjugate()
                for k in range(r)
            ) / order
            if abs(s.imag) > _INT_TOL or abs(s.real - round(s.real)) > _INT_TOL:
                raise RoundingFailure("tensor multiplicity is not an integer")
            row.append(int(round(s.real)))
        adjacency.append(tuple(row))

    return McKayData(
        spec=spec,
        elements=tuple(elements),
        conjugacy_classes=classes,
        irrep_dims=tuple(dims),
        characters=table,
        adjacency=tuple(adjacency),
    )


def _isomorphisms(adj_a, adj_b):
    """All vertex bijections with sigma(0) = 0 carrying adj_a onto adj_b."""
    n = len(adj_a)
    if adj_a[0][0] != adj_b[0][0]:
        return
    sigma = [0] + [-1] * (n - 1)
    used = [False] * n
    used[0] = True

    def consistent(u, v):
        if adj_a[u][u] != adj_b[v][v]:
            return False
        for w in range(u):
            if adj_a[u][w] != adj_b[v][sigma[w]]:
                return False
        return True

    def rec(u):
        if u == n:
            yield tuple(sigma)
            return
        for v in range(1, n):
            if not used[v] and consistent(u, v):
                sigma[u] = v
                used[v] = True
                yield from rec(u + 1)
                used[v] = False
                sigma[u] = -1

    yield from rec(1)


def reference_verify(data: McKayData, rs: RootSystem) -> CorrespondenceReport:
    """The matching found by backtracking over vertices in index order."""
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

    best = None
    for sigma in _isomorphisms(data.adjacency, target):
        dims_ok = all(
            data.irrep_dims[w] == rs.delta[sigma[w]] for w in range(n)
        )
        best = CorrespondenceReport(True, dims_ok, sum_squares_ok, sigma)
        if dims_ok:
            return best
    if best is None:
        raise NoIsomorphism("no adjacency isomorphism fixing the trivial vertex")
    return best
