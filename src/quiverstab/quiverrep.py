"""Framed doubled quivers and their exact matrix representations.

The quiver doubles every edge of an affine ADE diagram and joins a framing
vertex (written "inf") to vertex 0 by a pair of opposing arrows b, b*.
Original arrows point from lower to higher vertex index, and b is original.
A representation assigns one exact matrix per arrow; the per-vertex signed
sums of two-step compositions (the moment defect) vanish exactly on module
representations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice

from .errors import (
    DimensionTooLarge,
    DuplicateOrbit,
    EmptyInput,
    IndexMismatch,
    MultipleFramings,
    NonFreeOrbit,
    ShapeMismatch,
    UnsupportedField,
    UnsupportedType,
)
from .fieldops import (
    PrimeField,
    Rationals,
    identity,
    invert,
    mat_coerce,
    mat_mul,
    over_lcd,
    zeros,
)
from .rootsys import RootSystem

INF = "inf"

# Largest total dimension r + sum(v) of a representation; it keeps (1, delta)
# for every type (E8 gives 31).  For a given total the slowest shape is A1
# with the total split evenly, and the dense relation Jacobian grows as the
# fourth power of the total.  On a 2-core host, in-process, `stab tangent`
# takes 0.1 s on the 15-point A1 orbit module (total 31), whose Jacobian
# has full rank mod p, and 0.4-0.5 s where the rank falls back to Q: 14
# orbits plus a zero summand, or 15 orbits with coordinates divisible by
# p.  The zero A1 (0, (16, 16)) document takes 0.03 s, its Jacobian being
# zero, and `rep check` takes 3 ms on any of them.
MAX_TOTAL_DIM = 32


@dataclass(frozen=True)
class Arrow:
    label: str
    tail: object
    head: object
    original: bool
    partner: str


@dataclass(frozen=True)
class FramedQuiver:
    rs: RootSystem
    arrows: tuple

    def arrow(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise IndexMismatch(f"no arrow labelled {label!r}")

    def originals(self):
        return tuple(a for a in self.arrows if a.original)


@cache
def framed_quiver(rs: RootSystem) -> FramedQuiver:
    """Double the affine diagram and attach the framing pair b, b*.

    Memoised like :func:`build_root_system`: the quiver is a frozen record
    determined by the Dynkin type, so equal root systems share one instance.
    """
    arrows = []
    for i, j, mult in rs.affine_edges():
        for copy in range(1, mult + 1):
            stem = "e" if copy == 1 else f"e{copy}"
            orig = f"{stem}:{i}-{j}"
            rev = f"{stem}*:{j}-{i}"
            arrows.append(Arrow(orig, i, j, True, rev))
            arrows.append(Arrow(rev, j, i, False, orig))
    arrows.append(Arrow("b", INF, 0, True, "b*"))
    arrows.append(Arrow("b*", 0, INF, False, "b"))
    return FramedQuiver(rs=rs, arrows=tuple(arrows))


@dataclass(frozen=True)
class DimVector:
    """Dimension vector (r, v) with r at the framing vertex."""

    r: int
    v: tuple

    def __post_init__(self):
        if self.r < 0 or any(x < 0 for x in self.v):
            raise IndexMismatch("dimension vectors are componentwise nonnegative")
        if self.total() > MAX_TOTAL_DIM:
            raise DimensionTooLarge(
                f"total dimension {self.total()} is more than {MAX_TOTAL_DIM}"
            )

    def total(self) -> int:
        return self.r + sum(self.v)

    def at(self, vertex) -> int:
        return self.r if vertex == INF else self.v[vertex]

    def key(self):
        return (self.r,) + self.v


class FramedRep:
    """A representation of a framed quiver over an exact field.

    ``matrices`` maps arrow labels to (head dim x tail dim) matrices given
    as tuples of row tuples.  Missing arrows default to zero.  Instances
    are treated as immutable.
    """

    def __init__(self, quiver: FramedQuiver, field, dims: DimVector, matrices=None):
        if len(dims.v) != len(quiver.rs.vertices):
            raise ShapeMismatch("dimension vector length != vertex count")
        if dims.r not in (0, 1):
            raise ShapeMismatch("framing dimension must be 0 or 1")
        self.quiver = quiver
        self.field = field
        self.dims = dims
        full = {}
        matrices = dict(matrices or {})
        for a in quiver.arrows:
            m, n = dims.at(a.head), dims.at(a.tail)
            mat = matrices.pop(a.label, None)
            if mat is None:
                mat = zeros(field, m, n)
            else:
                mat = mat_coerce(field, mat)
                if len(mat) != m or any(len(row) != n for row in mat):
                    raise ShapeMismatch(
                        f"arrow {a.label!r} wants a {m}x{n} matrix"
                    )
            full[a.label] = mat
        if matrices:
            raise ShapeMismatch(f"unknown arrow labels {sorted(matrices)}")
        self.matrices = full

    def matrix(self, label: str):
        return self.matrices[label]

    def with_matrix(self, label: str, matrix) -> "FramedRep":
        self.quiver.arrow(label)
        new = dict(self.matrices)
        new[label] = matrix
        return FramedRep(self.quiver, self.field, self.dims, new)


class _Integers:
    """The integers as a row normaliser: rows of ints stay plain ints.

    The matrix kernels compute with Python operators and hand each row to
    ``reduce``, so under this normaliser they multiply integral forms
    exactly without a Fraction.  Nothing is ever inverted.
    """

    zero = 0
    coerce = staticmethod(int)
    reduce = staticmethod(tuple)


_ZZ = _Integers()


def _integral_form(rep: FramedRep):
    """(rep's matrices times den, as a representation over the integers, den).

    ``den`` is the least common denominator of every entry of a rational
    representation (:func:`over_lcd`), so each relation value of the
    integral form is den^2 times that of ``rep`` and each relation
    Jacobian entry den times: the same zeros, the same ranks.
    """
    mats = rep.matrices
    nums, den = over_lcd([x for mat in mats.values() for row in mat for x in row])
    it = iter(nums)
    ints = {label: tuple([tuple(islice(it, len(row))) for row in mat])
            for label, mat in mats.items()}
    return FramedRep(rep.quiver, _ZZ, rep.dims, ints), den


def moment_defect(rep: FramedRep):
    """Per-vertex signed relation values, indexed by the affine vertices.

    At vertex i the value is the sum of x_a x_a* over original arrows with
    head i minus the sum of x_a* x_a over original arrows with tail i; the
    framing pair contributes at vertex 0 only.  The value at the framing
    vertex is omitted: its trace is determined by the others.  A product
    through a zero-dimensional vertex is zero and is skipped.  Over Q the
    products run on the integral form, and each value is divided by den^2
    once at the end.
    """
    field = rep.field
    if isinstance(field, Rationals):
        ints, den = _integral_form(rep)
        scale = den * den
        return {
            i: tuple([tuple([Fraction(x, scale) for x in row]) for row in mat])
            for i, mat in moment_defect(ints).items()
        }
    dims = rep.dims
    defect = {i: zeros(field, dims.v[i], dims.v[i]) for i in rep.quiver.rs.vertices}

    def add(vertex, mat, op):
        defect[vertex] = tuple(
            field.reduce(map(op, r1, r2)) for r1, r2 in zip(defect[vertex], mat)
        )

    for a in rep.quiver.originals():
        x = rep.matrix(a.label)
        y = rep.matrix(a.partner)
        h, t = dims.at(a.head), dims.at(a.tail)
        if a.head != INF and t:
            add(a.head, mat_mul(field, x, y), operator.add)
        if a.tail != INF and h:
            add(a.tail, mat_mul(field, y, x), operator.sub)
    return defect


def is_pi_bar_module(rep: FramedRep) -> bool:
    """True when every relation value of :func:`moment_defect` vanishes.

    Over Q the test runs on the integral form, whose values are den^2
    times the rational ones, so no Fraction is built.
    """
    if isinstance(rep.field, Rationals):
        rep = _integral_form(rep)[0]
    return not any(x for mat in moment_defect(rep).values() for row in mat for x in row)


def framed_orbit_sum(rs: RootSystem, points, field) -> FramedRep:
    """Module of functions on a union of free cyclic-group orbits (type A).

    Each planar point with coordinates in the field contributes one copy of
    the regular representation, decomposed into its one-dimensional group
    isotypic pieces; the doubled-quiver arrows act by coordinate
    multiplication, the framing arrow b sends 1 to the sum of the canonical
    cyclic generators, and b* is zero.
    """
    if rs.dynkin.family != "A":
        raise UnsupportedType("orbit modules are implemented for type A only")
    m = rs.rank + 1
    if isinstance(field, PrimeField) and m % field.p == 0:
        raise UnsupportedField(
            f"orbit structure degenerates over F{field.p} when {field.p} divides {m}"
        )
    n = len(points)
    dims = DimVector(1, (n,) * m)  # refuses too many points before any scan
    coords = []
    for x, y in points:
        fx, fy = field.coerce(x), field.coerce(y)
        if not (fx or fy):
            raise NonFreeOrbit("the origin is fixed by the whole group")
        coords.append((fx, fy))
    seen = []
    for fx, fy in coords:
        # x^m, xy and y^m separate the orbits of the cyclic group of order m
        inv = field.reduce([fx**m, fx * fy, fy**m])
        if inv in seen:
            raise DuplicateOrbit("two points lie in one group orbit")
        seen.append(inv)

    quiver = framed_quiver(rs)

    def diag(values):
        return tuple(
            tuple(values[i] if i == j else field.zero for j in range(n))
            for i in range(n)
        )

    matrices = {}
    for a in quiver.originals():
        if a.label == "b":
            continue
        i, j = a.tail, a.head
        wrap = (m > 2 and (i, j) == (0, m - 1)) or (m == 2 and a.label.startswith("e2"))
        if wrap:
            matrices[a.label] = diag([x for x, _ in coords])
            matrices[a.partner] = diag(field.reduce([-y for _, y in coords]))
        else:
            matrices[a.label] = diag([y for _, y in coords])
            matrices[a.partner] = diag([x for x, _ in coords])
    matrices["b"] = tuple((field.one,) for _ in range(n))
    return FramedRep(quiver, field, dims, matrices)


def direct_sum(reps) -> FramedRep:
    """Blockwise direct sum; at most one summand may carry the framing."""
    reps = list(reps)
    if not reps:
        raise EmptyInput("direct sum of nothing")
    quiver, field = reps[0].quiver, reps[0].field
    for rep in reps[1:]:
        if rep.quiver.rs != quiver.rs or rep.field != field:
            raise ShapeMismatch("summands disagree on quiver or field")
    if sum(rep.dims.r for rep in reps) > 1:
        raise MultipleFramings("at most one summand may have framing dimension 1")

    r = max(rep.dims.r for rep in reps)
    v = tuple(sum(rep.dims.v[i] for rep in reps) for i in range(len(quiver.rs.vertices)))
    dims = DimVector(r, v)

    def offsets(vertex):
        out, acc = [], 0
        for rep in reps:
            out.append(acc)
            acc += rep.dims.at(vertex)
        return out

    matrices = {}
    for a in quiver.arrows:
        m, n = dims.at(a.head), dims.at(a.tail)
        block = [[field.zero] * n for _ in range(m)]
        ho, to = offsets(a.head), offsets(a.tail)
        for rep, hoff, toff in zip(reps, ho, to):
            sub = rep.matrix(a.label)
            for i, row in enumerate(sub):
                for j, x in enumerate(row):
                    block[hoff + i][toff + j] = x
        matrices[a.label] = tuple(tuple(row) for row in block)
    return FramedRep(quiver, field, dims, matrices)


def reduce_rep(rep: FramedRep, p: int) -> FramedRep:
    """Reduce a representation with p-integral entries modulo p.

    Relations vanish after reduction whenever they vanish before, so the
    result is again a module representation; stability certified for the
    reduction does not lift automatically.
    """
    return FramedRep(rep.quiver, PrimeField(p), rep.dims, rep.matrices)


def gauge_conjugate(rep: FramedRep, gauge) -> FramedRep:
    """Change of basis at the affine vertices; the framing line is untouched."""
    field = rep.field
    inverses = {}
    mats = {}
    for i, g in gauge.items():
        g = mat_coerce(field, g)
        if len(g) != rep.dims.v[i] or any(len(row) != rep.dims.v[i] for row in g):
            raise ShapeMismatch(f"gauge matrix at vertex {i} has the wrong size")
        ginv = invert(field, g)
        if ginv is None:
            raise ShapeMismatch(f"gauge matrix at vertex {i} is singular")
        mats[i] = g
        inverses[i] = ginv

    def at(vertex):
        if vertex == INF:
            one = ((field.one,),) if rep.dims.r == 1 else ()
            return one, one
        if vertex in mats:
            return mats[vertex], inverses[vertex]
        eye = identity(field, rep.dims.v[vertex])
        return eye, eye

    matrices = {}
    for a in rep.quiver.arrows:
        g_head, _ = at(a.head)
        _, g_tail_inv = at(a.tail)
        half = mat_mul(field, rep.matrix(a.label), g_tail_inv)
        matrices[a.label] = mat_mul(field, g_head, half)
    return FramedRep(rep.quiver, field, rep.dims, matrices)


def corner_bounds_check(sub_dim, n: int, J, rs: RootSystem) -> bool:
    """Window test for dimension vectors of submodules restricted to J.

    ``sub_dim`` is a pair (r, v_J) with v_J a mapping from the vertices of J.
    For r = 0 the componentwise window v_0 * delta|_J <= v_J <= n * delta|_J
    is allowed to touch both ends; for r = 1 the vector must additionally
    differ from both endpoint vectors.
    """
    r, v_J = sub_dim
    J = tuple(sorted(J))
    if 0 not in J:
        raise IndexMismatch("J must contain vertex 0")
    if set(v_J) != set(J):
        raise IndexMismatch("v_J must be indexed exactly by J")
    if r not in (0, 1):
        raise IndexMismatch("framing component of a submodule is 0 or 1")
    v0 = v_J[0]
    lower = {j: v0 * rs.delta[j] for j in J}
    upper = {j: n * rs.delta[j] for j in J}
    if not all(lower[j] <= v_J[j] <= upper[j] for j in J):
        return False
    if r == 1:
        if all(v_J[j] == lower[j] for j in J):
            return False
        if all(v_J[j] == upper[j] for j in J):
            return False
    return True
