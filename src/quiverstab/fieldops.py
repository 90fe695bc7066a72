"""Exact scalar fields and small dense linear algebra over them.

Two coefficient fields are supported: the rationals (arbitrary precision,
ints and :class:`fractions.Fraction`) and prime fields F_p (plain ints
reduced mod p).  Matrices are immutable tuples of row tuples; all routines
are pure functions.  Sizes in this package stay tiny (dimensions well under a
hundred), so clarity beats asymptotics throughout.

A field is a row normaliser, not a scalar calculator: every kernel
computes with Python operators and hands each row once to
``field.reduce``: over Q, whose elements are ints and Fractions, a row
stays as it is, so int rows stay ints until a pivot is inverted; over F_p
it is reduced ``% p``.  Elements are kept reduced, so a zero entry is a
falsy one; ``rref`` reduces its input rows first and accepts any ints.

Elimination inserts one row at a time into a reduced echelon basis
(``echelon_insert``), scaling a row only when its lead is not already
one, which over F_2 it always is.  ``rref`` can extend a basis that is
already reduced (its ``onto``), so a join of two subspaces eliminates
only the rows of the second.

``dot`` is the one pairing, of vectors and of matrix rows and columns
alike, and ``signs`` the one sign kernel; on integer vectors both stay in
int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NonIntegralEntry, UnsupportedField


class Rationals:
    """The field of rational numbers; elements are ints and Fractions, and rows need no reducing."""

    name = "Q"

    zero = 0
    one = 1
    reduce = staticmethod(tuple)

    def coerce(self, x):
        return x if type(x) is int or type(x) is Fraction else Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# Largest characteristic accepted.  Primality is tested by trial division,
# which takes about sqrt(p) steps: 46,341 here, 10^10 for p near 10^20.
MAX_PRIME = 2**31 - 1


class PrimeField:
    """The prime field F_p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise UnsupportedField(f"{p} is larger than the largest supported prime {MAX_PRIME}")
        if not _is_prime(p):
            raise UnsupportedField(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if type(x) is int:  # most entries; skips the ABC check below
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise NonIntegralEntry(
                    f"{x} has no image in F{self.p}: its denominator is divisible by {self.p}"
                )
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def reduce(self, values):
        p = self.p
        return tuple([x % p for x in values])

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = Rationals()


def dot(coeffs, values):
    """Exact pairing sum_i coeffs[i] * values[i] of two vectors.

    The sum starts at the int 0: two integer vectors pair to an int (over
    F_p, unreduced), and a vector with a Fraction entry pairs to a Fraction.
    """
    return sum(map(mul, coeffs, values))


def signs(rows, point):
    """The sign -1, 0 or 1 of dot(row, point) for each row, as a list.

    The one sign kernel of stability space: rows are integer normals and
    ``point`` the integer numerators of a stability vector over its
    positive common denominator, so every sign comes from int arithmetic.
    """
    return [(v > 0) - (v < 0) for v in (dot(row, point) for row in rows)]


def over_lcd(values):
    """Int numerators over the least common denominator of a rational vector.

    Returns (nums, den) with den > 0 and entry i equal to nums[i] / den; an
    all-int vector is its own numerators over 1.
    """
    values = tuple(values)
    if all([type(x) is int for x in values]):
        return values, 1
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*[x.denominator for x in values])
    return tuple([x.numerator * (den // x.denominator) for x in values]), den


def primitive(values):
    """The primitive integer vector on the ray of a rational vector.

    Clears denominators and divides by the content, keeping the sign; the
    zero vector stays zero.
    """
    ints, _ = over_lcd(values)
    content = gcd(*ints)
    return tuple([x // content for x in ints]) if content > 1 else ints


# -- matrices: tuples of row tuples ------------------------------------------

def zeros(field, m: int, n: int):
    return tuple((field.zero,) * n for _ in range(m))


def identity(field, n: int):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n))
        for i in range(n)
    )


def mat_coerce(field, rows):
    coerce = field.coerce
    return tuple([tuple([coerce(x) for x in row]) for row in rows])


def mat_mul(field, a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions disagree")
    bt = tuple(zip(*b))
    return tuple(field.reduce([dot(row, col) for col in bt]) for row in a)


def mat_vec(field, a, v):
    return field.reduce([dot(row, v) for row in a])


def leading_index(row):
    """Column of the first nonzero entry of a reduced ``row``, or None for a zero row."""
    return next((j for j, x in enumerate(row) if x), None)


def _subtract(field, v, c, row):
    """The row update v - c * row, skipping the zero entries of ``row``."""
    return field.reduce([x - c * y if y else x for x, y in zip(v, row)])


def reduce_against(field, basis, pivots, vec):
    """Reduce ``vec`` against echelon rows ``basis`` with pivot columns ``pivots``."""
    for row, piv in zip(basis, pivots):
        c = vec[piv]
        if c:
            vec = _subtract(field, vec, c, row)
    return tuple(vec)


def echelon_insert(field, basis, pivots, vec):
    """Insert a reduced ``vec`` into a reduced echelon basis.  Returns True if rank grew.

    ``basis`` and ``pivots`` are parallel lists kept sorted by pivot column;
    rows are normalized to leading coefficient one and fully reduced.  A row
    whose lead is already one, such as every row over F_2, is kept as it is;
    any other row has its nonzero entries scaled.
    """
    v = reduce_against(field, basis, pivots, vec)
    piv = leading_index(v)
    if piv is None:
        return False
    lead = v[piv]
    if lead != 1:
        inv = field.inv(lead)
        v = field.reduce([inv * x if x else x for x in v])
    # clear the new pivot column in the existing rows
    for k, row in enumerate(basis):
        c = row[piv]
        if c:
            basis[k] = _subtract(field, row, c, v)
    at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
    basis.insert(at, v)
    pivots.insert(at, piv)
    return True


def rref(field, rows, onto=((), ())):
    """Reduced row echelon form.  Returns (rows, pivot columns), both tuples.

    ``onto`` is a reduced echelon basis (rows, pivots) that ``rows`` extend:
    the result is the reduced echelon form of its rows and ``rows``
    together, without eliminating its rows again.
    """
    basis, pivots = list(onto[0]), list(onto[1])
    for row in rows:
        echelon_insert(field, basis, pivots, field.reduce(row))
    return tuple(basis), tuple(pivots)


def rank(field, rows) -> int:
    return len(rref(field, rows)[0])


def nullspace(field, rows, ncols: int):
    """Basis of the right kernel {x : A x = 0} of a matrix given by ``rows``."""
    basis, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    out = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, piv in zip(basis, pivots):
            vec[piv] = -row[f]
        out.append(field.reduce(vec))
    return tuple(out)


def invert(field, a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [tuple(row) + e for row, e in zip(a, identity(field, n))]
    basis, pivots = rref(field, aug)
    if list(pivots) != list(range(n)):
        return None
    return tuple(row[n:] for row in basis)
