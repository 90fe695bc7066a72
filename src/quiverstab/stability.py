"""Stability vectors and the explicit chamber/cone inequality systems.

A stability vector is a rational vector over the affine vertices together
with a derived framing entry that makes it orthogonal to the dimension
vector (1, v).  Membership in the fundamental cone F, the chambers C_K,
and the boundary cones sigma_K / sigma_{K,K'} is decided by evaluating
the defining inequality systems exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .errors import BadSubset, ContextMismatch, IndexMismatch, MismatchedRootSystem
from .fieldops import dot, over_lcd, signs
from .quiverrep import DimVector
from .rootsys import RootSystem


@dataclass(frozen=True)
class StabilityVector:
    """Entries over the affine vertices plus the derived framing entry.

    ``den`` is the least common denominator of the entries (always
    positive) and ``nums`` their integer numerators over it, so entry i is
    nums[i] / den.  The pair is canonical, so equal vectors compare and
    hash equal; :func:`theta_from_nums` makes it from numerators over any
    positive denominator, and :func:`make_theta` from rational entries.
    Every pairing and sign is int arithmetic, divided by ``den`` at most
    once; ``entries`` and ``theta_inf`` give the Fractions on demand.
    """

    rs: RootSystem
    context: tuple  # dimension vector v over the affine vertices
    nums: tuple  # entries * den, as ints
    den: int

    @cached_property
    def entries(self) -> tuple:
        """The exact rationals over the affine vertices."""
        return tuple([Fraction(x, self.den) for x in self.nums])

    @cached_property
    def theta_inf(self) -> Fraction:
        """The framing entry, which balances (1, context) to zero."""
        return Fraction(-dot(self.context, self.nums), self.den)

    def value(self, coeffs) -> Fraction:
        """Pairing with an integer root-lattice vector over the affine vertices.

        The framing entry never enters; ``value(rs.delta)`` is theta(delta).
        """
        if len(coeffs) != len(self.nums):
            raise MismatchedRootSystem("coefficient length != vertex count")
        return Fraction(dot(coeffs, self.nums), self.den)


def make_theta(rs: RootSystem, v, entries) -> StabilityVector:
    """Build a stability vector; the framing entry balances (1, v) to zero."""
    return theta_from_nums(rs, v, *over_lcd(entries))


def theta_from_nums(rs: RootSystem, v, nums, den: int) -> StabilityVector:
    """The stability vector with entries nums[i] / den, for ints nums and den > 0.

    Equal to ``make_theta`` on the entries ``Fraction(x, den)``, ``nums``
    and ``den`` included: dividing both by their gcd leaves ``den`` the
    least common denominator of the entries.
    """
    v = tuple(int(x) for x in v)
    if len(v) != len(rs.vertices) or len(nums) != len(rs.vertices):
        raise IndexMismatch("context and entries must cover the affine vertices")
    if den < 1:
        raise ValueError("the denominator must be positive")
    g = gcd(den, *nums)
    if g > 1:
        nums = [x // g for x in nums]
        den //= g
    return StabilityVector(rs=rs, context=v, nums=tuple(nums), den=den)


def pair_dim(theta: StabilityVector, d: DimVector) -> Fraction:
    """Pairing r * theta_inf + sum_i v_i * theta_i with a dimension vector.

    One integer pairing over ``den``: theta_inf * den = -dot(context, nums).
    """
    if len(d.v) != len(theta.nums):
        raise IndexMismatch("dimension vector does not match the vertex set")
    return Fraction(dot(d.v, theta.nums) - d.r * dot(theta.context, theta.nums), theta.den)


@dataclass(frozen=True)
class ConeSpec:
    """One of the regions F, C_K, sigma_K, sigma_{K,K'} for a fixed n.

    ``kind`` is "F", "C", "sigma", or "sigmaKK"; K omits vertex 0 and
    K' is only meaningful for kind "sigmaKK".  The sigma kinds denote
    relative interiors unless membership is asked for the closed cone.
    """

    kind: str
    n: int
    K: frozenset = dc_field(default_factory=frozenset)
    Kp: frozenset = dc_field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in ("F", "C", "sigma", "sigmaKK"):
            raise BadSubset(f"unknown cone kind {self.kind!r}")
        if self.n < 1:
            raise BadSubset("n must be positive")
        if 0 in self.K:
            raise BadSubset("K may not contain vertex 0")
        if not self.Kp <= self.K:
            raise BadSubset("K' must be a subset of K")


def cone_constraints(rs: RootSystem, cone: ConeSpec, closed: bool = False):
    """The defining linear system as (coeffs over vertices, relation) pairs.

    Relations are ">", ">=", or "="; all right-hand sides are zero.  With
    ``closed`` every strict inequality is relaxed.  Returns a fresh list.
    """
    rows, rels = _cone_system(rs, cone, closed)
    return list(zip(rows, rels))


@lru_cache(maxsize=1024)
def _cone_system(rs: RootSystem, cone: ConeSpec, closed: bool):
    """The system of :func:`cone_constraints` as (rows, relations), built once.

    ``RootSystem`` hashes by its Dynkin type and ``ConeSpec`` is frozen, so
    each (rs, cone, closed) is built once per process.  The result is the
    pair (rows, relations) of tuples, read but never mutated.
    """
    n_vertices = len(rs.vertices)
    K = sorted(cone.K)
    if any(k not in rs.vertices for k in K):
        raise BadSubset("K contains unknown vertices")
    J = [i for i in rs.vertices if i not in cone.K]
    delta = rs.delta

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n_vertices))

    def delta_restricted(subset):
        return tuple(delta[i] if i in subset else 0 for i in range(n_vertices))

    def minus_scaled_delta(i, factor):
        return tuple(
            (1 if j == i else 0) - factor * delta[j] for j in range(n_vertices)
        )

    gt = ">=" if closed else ">"
    out = []
    if cone.kind == "F":
        out.append((delta_restricted(rs.vertices), ">="))
        for i in rs.vertices[1:]:
            out.append((unit(i), ">="))
        return tuple(zip(*out))
    if cone.kind == "C":
        out.append((delta_restricted(J), gt))
        for j in J:
            if j != 0:
                out.append((minus_scaled_delta(j, cone.n - 1), gt))
        for k in K:
            out.append((unit(k), gt))
        return tuple(zip(*out))
    if cone.kind == "sigma":
        eq, rest = K, []
    else:
        eq, rest = sorted(cone.Kp), sorted(cone.K - cone.Kp)
    for k in eq:
        out.append((unit(k), "="))
    for k in rest:
        out.append((unit(k), gt))
    out.append((delta_restricted(rs.vertices), gt))
    for j in J:
        if j != 0:
            out.append((minus_scaled_delta(j, cone.n - 1), gt))
    return tuple(zip(*out))


def holds(value, rel: str, rhs=0) -> bool:
    """The relation ``value rel rhs`` for rel one of ">", ">=", "="."""
    if rel == ">":
        return value > rhs
    if rel == ">=":
        return value >= rhs
    return value == rhs


def cone_membership(theta: StabilityVector, cone: ConeSpec, closed: bool = False) -> bool:
    """Evaluate the defining system of the cone at ``theta`` exactly."""
    expected = tuple(cone.n * d for d in theta.rs.delta)
    if theta.context != expected:
        raise ContextMismatch(
            f"stability context {theta.context} is not {cone.n} * delta"
        )
    # den > 0, so each row pairs with theta with the sign of its pairing with nums
    rows, rels = _cone_system(theta.rs, cone, closed)
    return all(map(holds, signs(rows, theta.nums), rels))


def craw_wye_theta(rs: RootSystem, J, n: int) -> StabilityVector:
    """The explicit chamber representative with theta(delta) = h.

    Entries are n*h on J minus the zero vertex, 1 on the complement K, and
    the vertex-0 entry is solved from theta(delta) = h.  The result always
    lies in the chamber C_K for K the complement of J.
    """
    if n < 1:
        raise BadSubset("n must be positive")
    J = frozenset(J)
    if 0 not in J:
        raise BadSubset("J must contain vertex 0")
    if not J <= set(rs.vertices):
        raise BadSubset("J contains unknown vertices")
    h = rs.h
    nums = [0] * len(rs.vertices)
    for i in rs.vertices[1:]:
        nums[i] = n * h if i in J else 1
    nums[0] = h - dot(rs.delta, nums)
    return theta_from_nums(rs, tuple(n * d for d in rs.delta), nums, 1)
