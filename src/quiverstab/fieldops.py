"""Exact scalar fields and small dense linear algebra over them.

Two coefficient fields are supported: the rationals (arbitrary precision,
via :class:`fractions.Fraction`) and prime fields F_p (plain ints reduced
mod p).  Matrices are immutable tuples of row tuples; all routines are
pure functions.  Sizes in this package stay tiny (dimensions well under a
hundred), so clarity beats asymptotics throughout.

``dot`` is the one pairing and ``signs`` the one sign kernel; on integer
vectors both stay in int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NonIntegralEntry, UnsupportedField


class Rationals:
    """The field of rational numbers with exact Fraction arithmetic."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

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
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise NonIntegralEntry(
                    f"{x} has no image in F{self.p}: its denominator is divisible by {self.p}"
                )
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = Rationals()


def dot(coeffs, values):
    """Exact pairing sum_i coeffs[i] * values[i] of two rational vectors.

    The sum starts at the int 0: two integer vectors pair to an int, and a
    vector with a Fraction entry pairs to a Fraction.
    """
    return sum(map(mul, coeffs, values))


def signs(rows, point):
    """The sign -1, 0 or 1 of dot(row, point) for each row, as a list.

    The one sign kernel of stability space: rows are integer normals and
    ``point`` the integer numerators of a stability vector over its
    positive common denominator, so every sign comes from int arithmetic.
    """
    return [(v > 0) - (v < 0) for v in (dot(row, point) for row in rows)]


def primitive(values):
    """The primitive integer vector on the ray of a rational vector.

    Clears denominators and divides by the content, keeping the sign; the
    zero vector stays zero.
    """
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    scale = lcm(*[x.denominator for x in values])
    ints = [x.numerator * scale // x.denominator for x in values]
    content = gcd(*ints)
    return tuple([x // content for x in ints]) if content > 1 else tuple(ints)


# -- matrices: tuples of row tuples ------------------------------------------

def zeros(field, m: int, n: int):
    return tuple((field.zero,) * n for _ in range(m))


def identity(field, n: int):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n))
        for i in range(n)
    )


def mat_coerce(field, rows):
    return tuple(tuple(field.coerce(x) for x in row) for row in rows)


def mat_sub(field, a, b):
    return tuple(
        tuple(field.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_mul(field, a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions disagree")
    bt = tuple(zip(*b)) if b else ()
    out = []
    for row in a:
        out_row = []
        for col in bt:
            s = field.zero
            for x, y in zip(row, col):
                s = field.add(s, field.mul(x, y))
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


def mat_vec(field, a, v):
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return tuple(out)


def trace(field, a):
    s = field.zero
    for i, row in enumerate(a):
        s = field.add(s, row[i])
    return s


def leading_index(field, row):
    """Column of the first nonzero entry of ``row``, or None for a zero row."""
    return next((j for j, x in enumerate(row) if not field.is_zero(x)), None)


def reduce_against(field, basis, pivots, vec):
    """Reduce ``vec`` against echelon rows ``basis`` with pivot columns ``pivots``."""
    v = list(vec)
    for row, piv in zip(basis, pivots):
        c = v[piv]
        if field.is_zero(c):
            continue
        for j in range(piv, len(v)):
            v[j] = field.sub(v[j], field.mul(c, row[j]))
    return tuple(v)


def echelon_insert(field, basis, pivots, vec):
    """Insert ``vec`` into a reduced echelon basis.  Returns True if rank grew.

    ``basis`` and ``pivots`` are parallel lists kept sorted by pivot column;
    rows are normalized to leading coefficient one and fully reduced.
    """
    v = reduce_against(field, basis, pivots, vec)
    piv = leading_index(field, v)
    if piv is None:
        return False
    inv = field.inv(v[piv])
    v = tuple(field.mul(inv, x) for x in v)
    # clear the new pivot column in the existing rows
    for k, row in enumerate(basis):
        c = row[piv]
        if field.is_zero(c):
            continue
        basis[k] = tuple(
            field.sub(x, field.mul(c, y)) for x, y in zip(row, v)
        )
    at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
    basis.insert(at, v)
    pivots.insert(at, piv)
    return True


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot columns), both tuples."""
    basis: list = []
    pivots: list = []
    for row in rows:
        echelon_insert(field, basis, pivots, tuple(row))
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
            vec[piv] = field.neg(row[f])
        out.append(tuple(vec))
    return tuple(out)


def invert(field, a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [tuple(a[i]) + tuple(identity(field, n)[i]) for i in range(n)]
    basis, pivots = rref(field, aug)
    if list(pivots) != list(range(n)):
        return None
    return tuple(row[n:] for row in basis)
