"""Finite and affine ADE root-system data.

Vertex numbering follows the Bourbaki convention for the finite diagram
(chain 1..n for type A; chain 1..n-1 with n forking off n-2 for type D;
chain 1,3,4,..,n with 2 attached to 4 for type E) and the extending
vertex is always index 0.  Positive roots of the finite system are
generated by closing the simple roots under raising simple reflections,
and delta is alpha_0 plus the highest root.  All arithmetic is on integer
vectors.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cache

from .errors import InvalidRank
from . import fieldops

# Largest McKay group order accepted: the order of 2I.  On cyclic:m the
# class structure constants of build_mckay hold m^3 ints: cyclic:100 takes
# 0.11 s and 26 MB peak RSS, and cyclic:120, the slowest group under the
# cap, 0.24 s and 33 MB, on a 2-core host (17 MB of either is the
# interpreter with quiverstab imported).  Dynkin types are capped by the
# order of their McKay group too.  Building a root system carries one
# pairing vector per positive root: A119 (7,140 positive roots) takes
# about 0.12 s there.
MAX_GROUP_ORDER = 120


def check_digit_runs(text: str):
    """Refuse a run of digits in ``text`` that ``int`` would refuse, naming the limit.

    ``int`` reads at most ``sys.get_int_max_str_digits()`` digits (4,300 by
    default; underscores do not count) and advises raising that limit, which
    a command-line user cannot act on.
    """
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        runs = re.findall(r"\d+(?:_\d+)*", text)
        digits = max([len(run) - run.count("_") for run in runs], default=0)
        if digits > limit:
            raise ValueError(f"an integer of {digits} digits is over the limit of {limit}")


def parse_int(value) -> int:
    """An exact int as it is, or the int an ASCII ``[+-]?[0-9]+`` string writes.

    Anything else raises ValueError: a bool, a float, or text that ``int``
    alone would read, such as "1_0", surrounding spaces and any Unicode
    digit ("٣", "６").  Over 4,300 digits raise :func:`check_digit_runs`.
    """
    if isinstance(value, str):
        digits = value[1:] if value.startswith(("+", "-")) else value
        if digits.isascii() and digits.isdigit():
            check_digit_runs(digits)
            return int(value)
    elif type(value) is int:
        return value
    raise ValueError(f"not an integer: {value!r}")


@dataclass(frozen=True)
class DynkinType:
    """A simply-laced Dynkin family and rank, e.g. DynkinType('D', 4)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "D", "E"):
            raise InvalidRank(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise InvalidRank("rank must be positive")
        if self.family == "D" and self.rank < 4:
            raise InvalidRank("type D requires rank >= 4")
        if self.family == "E" and self.rank not in (6, 7, 8):
            raise InvalidRank("type E requires rank in {6, 7, 8}")
        # the McKay group of A_n is cyclic of order n + 1 and that of D_n
        # binary dihedral of order 4(n - 2); E6, E7, E8 give 24, 48, 120
        order = self.rank + 1 if self.family == "A" else 4 * (self.rank - 2)
        if self.family != "E" and order > MAX_GROUP_ORDER:
            raise InvalidRank(
                f"{self.label()} needs a McKay group of order {order} > {MAX_GROUP_ORDER}"
            )

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        text = text.strip()
        try:
            rank = parse_int(text[1:])
        except ValueError:
            raise InvalidRank(f"cannot parse Dynkin type {text!r}") from None
        return cls(text[0].upper(), rank)

    def label(self) -> str:
        return f"{self.family}{self.rank}"


def _finite_edges(dynkin: DynkinType):
    """Edges of the finite Dynkin diagram on vertices 1..rank."""
    n = dynkin.rank
    if dynkin.family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if dynkin.family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
    return [(a, b) for a, b in zip(chain, chain[1:])] + [(2, 4)]


@dataclass(frozen=True)
class RootSystem:
    """Cartan data of one affine ADE diagram.

    Fields: ``vertices`` is the index tuple (0, 1, .., rank) with 0 the
    extending vertex; ``finite_cartan`` is indexed by 1..rank (as a tuple
    of row tuples); ``affine_cartan`` by all of ``vertices``;
    ``positive_roots`` are integer coefficient tuples over 1..rank;
    ``delta`` is the primitive isotropic vector over ``vertices`` with
    delta[0] == 1; ``h`` is the sum of its entries.
    """

    dynkin: DynkinType
    vertices: tuple
    finite_cartan: tuple
    affine_cartan: tuple
    positive_roots: tuple
    delta: tuple
    h: int

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.dynkin == other.dynkin

    def __hash__(self):
        return hash(self.dynkin)

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def affine_edges(self):
        """Edges (i, j, multiplicity) with i < j of the affine diagram."""
        out = []
        n = len(self.vertices)
        for i in range(n):
            for j in range(i + 1, n):
                m = -self.affine_cartan[i][j]
                if m > 0:
                    out.append((i, j, m))
        return out


def _simple_reflection_closure(cartan, rank: int):
    """Close the simple roots under raising simple reflections.

    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i raises beta exactly when
    the pairing (C beta)_i is negative, and every positive root is reached
    from a simple root by raising reflections, so only those are taken.
    Each root carries its pairing vector C beta: raising beta by k alpha_i
    adds k times row i of the (symmetric) Cartan matrix, which touches i
    and its neighbours alone.
    """
    row_support = [[j for j in range(rank) if cartan[i][j]] for i in range(rank)]
    simples = [
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    ]
    found = set(simples)
    work = [(alpha, list(row)) for alpha, row in zip(simples, cartan)]
    while work:
        beta, pairings = work.pop()
        for i in [i for i, x in enumerate(pairings) if x < 0]:
            k = -pairings[i]
            refl = beta[:i] + (beta[i] + k,) + beta[i + 1:]
            if refl not in found:
                found.add(refl)
                raised = pairings.copy()
                for j in row_support[i]:
                    raised[j] += k * cartan[i][j]
                work.append((refl, raised))
    return tuple(sorted(found))


@cache
def build_root_system(dynkin: DynkinType) -> RootSystem:
    """Construct the full finite + affine Cartan data for one ADE type.

    Memoised: the type is frozen and the result is a frozen record of
    tuples, so every call with an equal type returns the same instance.
    """
    rank = dynkin.rank
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in _finite_edges(dynkin):
        cartan[a - 1][b - 1] = -1
        cartan[b - 1][a - 1] = -1
    cartan = tuple(tuple(row) for row in cartan)

    positive = _simple_reflection_closure(cartan, rank)
    highest = max(positive, key=lambda r: (sum(r), r))

    # Affine extension: the new row/column pairs against the highest root.
    n = rank + 1
    affine = [[0] * n for _ in range(n)]
    affine[0][0] = 2
    for i in range(rank):
        for j in range(rank):
            affine[i + 1][j + 1] = cartan[i][j]
        pairing = sum(cartan[i][j] * highest[j] for j in range(rank))
        affine[0][i + 1] = -pairing
        affine[i + 1][0] = -pairing
    affine = tuple(tuple(row) for row in affine)

    # delta = alpha_0 + highest root spans the kernel of the affine Cartan matrix
    delta = (1,) + highest
    if any(fieldops.dot(row, delta) for row in affine):
        raise InvalidRank("alpha_0 + highest root is not isotropic")

    return RootSystem(
        dynkin=dynkin,
        vertices=tuple(range(n)),
        finite_cartan=cartan,
        affine_cartan=affine,
        positive_roots=positive,
        delta=delta,
        h=sum(delta),
    )


def m_delta_plus_root(rs: RootSystem, m: int, root, sign: int) -> tuple:
    """The lattice vector m*delta + sign*alpha for a finite root alpha, as ints."""
    coeffs = [m * d for d in rs.delta]
    for i, c in enumerate(root):
        coeffs[i + 1] += sign * c
    return tuple(coeffs)
