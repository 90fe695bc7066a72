"""Contract of the fieldops kernels: reduced ints over F_p, ints and Fractions over Q."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from corpus import zero_summand

from quiverstab import DynkinType, build_root_system, direct_sum, framed_orbit_sum
from quiverstab.errors import NonIntegralEntry
from quiverstab.fieldops import (
    QQ,
    PrimeField,
    invert,
    mat_mul,
    mat_vec,
    nullspace,
    over_lcd,
    primitive,
    rank,
    rref,
)
from quiverstab.quiverrep import _integral_form
from quiverstab.stabcheck import _relation_jacobian


def _matrix(entries, rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: tuple(map(tuple, m)))


@st.composite
def prime_case(draw):
    """A prime, an m x n int matrix with entries far outside [0, p), and n."""
    p = draw(st.sampled_from([2, 3, 283]))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return p, draw(_matrix(st.integers(-3 * p, 3 * p), m, n)), n


@st.composite
def rational_case(draw):
    """An m x n matrix of Fractions, of ints, or of both mixed, and n."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    ints = st.integers(-5, 5)
    entries = draw(st.sampled_from([fractions, ints, fractions | ints]))
    return draw(_matrix(entries, m, n)), n


@st.composite
def extension_case(draw):
    """A field, then a base matrix and more rows of one width over it."""
    p = draw(st.sampled_from([2, 3, 283, None]))
    field = QQ if p is None else PrimeField(p)
    if p is None:
        entries = st.fractions(min_value=-5, max_value=5, max_denominator=7) | st.integers(-5, 5)
    else:
        entries = st.integers(-3 * p, 3 * p)
    n = draw(st.integers(0, 5))
    base = draw(_matrix(entries, draw(st.integers(0, 5)), n))
    return field, base, draw(_matrix(entries, draw(st.integers(0, 5)), n))


def _entries(result):
    """Every scalar in a nest of tuples; None, a singular inverse, has none."""
    if isinstance(result, tuple):
        for x in result:
            yield from _entries(x)
    elif result is not None:
        yield result


def _square(rows, n):
    """The leading min(m, n) square block, so invert always has a square input."""
    k = min(len(rows), n)
    return tuple(row[:k] for row in rows[:k])


@settings(max_examples=200, deadline=None)
@given(prime_case())
def test_prime_field_kernels_reduce_their_input(case):
    p, rows, n = case
    field = PrimeField(p)
    reduced = tuple(tuple(x % p for x in row) for row in rows)
    square, square_reduced = _square(rows, n), _square(reduced, n)
    basis, pivots = rref(field, rows)
    assert (basis, pivots) == rref(field, reduced)
    assert nullspace(field, rows, n) == nullspace(field, reduced, n)
    assert rank(field, rows) == rank(field, reduced) == len(basis)
    assert invert(field, square) == invert(field, square_reduced)
    results = [basis, nullspace(field, rows, n), invert(field, square)]
    if n:
        vec = tuple(range(-n, 0))
        results.append(mat_vec(field, rows, vec))
        results.append(mat_mul(field, rows, tuple(zip(*rows))))
    for x in _entries(tuple(results)):
        assert type(x) is int and 0 <= x < p


def _rational_results(rows, n):
    """Every Q kernel on an m x n matrix ``rows``."""
    return (
        rref(QQ, rows),
        rank(QQ, rows),
        nullspace(QQ, rows, n),
        invert(QQ, _square(rows, n)),
        mat_mul(QQ, rows, tuple(zip(*rows))),
        mat_mul(QQ, tuple(zip(*rows)), rows),
        mat_vec(QQ, rows, (Fraction(1, 2),) * n),
        mat_vec(QQ, rows, tuple(range(n))),
    )


@settings(max_examples=200, deadline=None)
@given(rational_case())
def test_rational_kernels_equal_their_runs_on_fractions(case):
    # an element of Q is an int or a Fraction, whichever the arithmetic gave
    rows, n = case
    results = _rational_results(rows, n)
    as_fractions = tuple(tuple(map(Fraction, row)) for row in rows)
    assert results == _rational_results(as_fractions, n)
    for x in _entries(results):
        assert type(x) is int or type(x) is Fraction


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination in plain Fractions, on sparse rows.

    Each row, kept as {column: nonzero entry}, is reduced by the pivot rows
    on its leading column until it is zero or leads a new pivot column.
    """
    pivots = {}
    for row in rows:
        v = {j: Fraction(x) for j, x in enumerate(row) if x}
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = {j: x / v[lead] for j, x in v.items()}
                break
            c = v[lead]
            for j, x in pivots[lead].items():
                y = v.get(j, 0) - c * x
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
    return len(pivots)


@st.composite
def low_rank_case(draw):
    """An m x n product of an m x k and a k x n matrix, so its rank is at most k."""
    m, k, n = draw(st.integers(0, 7)), draw(st.integers(0, 4)), draw(st.integers(0, 7))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    ints = st.integers(-5, 5)
    entries = draw(st.sampled_from([fractions, ints, fractions | ints]))
    left, right = draw(_matrix(entries, m, k)), draw(_matrix(entries, k, n))
    return tuple(tuple(sum(a * right[i][j] for i, a in enumerate(row)) for j in range(n))
                 for row in left)


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_case().map(lambda case: case[0]), low_rank_case()))
def test_rational_rank_matches_fraction_elimination(rows):
    assert rank(QQ, rows) == fraction_rank(rows)


@pytest.mark.parametrize("type_label,k", [("A1", k) for k in range(1, 11)]
                         + [("A2", k) for k in range(1, 6)])
def test_rational_rank_of_an_orbit_plus_zero_jacobian(type_label, k):
    # the singular points whose tangent falls back to the rational rank
    rs = build_root_system(DynkinType.parse(type_label))
    rep = direct_sum([framed_orbit_sum(rs, [(1, j) for j in range(k)], QQ), zero_summand(rs)])
    columns = [col for col in _relation_jacobian(_integral_form(rep)[0]) if any(col)]
    assert rank(QQ, columns) == fraction_rank(columns)


@settings(max_examples=300, deadline=None)
@given(extension_case())
def test_rref_onto_a_reduced_basis_is_rref_of_both(case):
    field, base, rows = case
    assert rref(field, rows, rref(field, base)) == rref(field, base + rows)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 283]),
    st.integers(-1000, 1000) | st.booleans()
    | st.fractions(min_value=-50, max_value=50, max_denominator=20),
)
def test_prime_coerce_maps_every_rational_to_its_residue(p, x):
    field = PrimeField(p)
    q = Fraction(x)
    if q.denominator % p == 0:
        with pytest.raises(NonIntegralEntry):
            field.coerce(x)
        return
    image = field.coerce(x)
    assert type(image) is int and image == q.numerator * pow(q.denominator, -1, p) % p


def test_empty_products_are_field_zeros():
    # inner dimension 0: a 2 x 0 matrix times a 0 x 0 one, and by the empty vector
    assert mat_mul(QQ, ((), ()), ()) == ((), ())
    assert mat_vec(QQ, ((), ()), ()) == (Fraction(0), Fraction(0))
    assert all(type(x) is int or type(x) is Fraction for x in mat_vec(QQ, ((), ()), ()))


def _lcd_reference(values):
    """(nums, den) for the least den > 0 that makes every entry an integer, by search."""
    fractions = [Fraction(x) for x in values]
    den = next(d for d in range(1, 2521) if all((x * d).denominator == 1 for x in fractions))
    return tuple([int(x * den) for x in fractions]), den


big = st.integers(-10**20, 10**20)
rational_entry = st.builds(Fraction, big, st.integers(1, 9))  # every lcd divides 2520
rational_vector = st.integers(0, 6).flatmap(lambda k: st.one_of(
    st.lists(big, min_size=k, max_size=k),
    st.lists(rational_entry, min_size=k, max_size=k),
    st.lists(big | rational_entry, min_size=k, max_size=k),
    st.just([0] * k),
    st.just([Fraction(0)] * k),
))


@settings(max_examples=300, deadline=None)
@given(rational_vector)
def test_over_lcd_and_primitive_match_fraction_references(values):
    nums, den = over_lcd(values)
    assert (nums, den) == _lcd_reference(values)
    assert type(nums) is tuple and type(den) is int
    assert all(type(x) is int for x in nums)
    if all(type(x) is int for x in values):
        assert (nums, den) == (tuple(values), 1)

    # the primitive vector is the content-free int vector on the same ray
    prim = primitive(values)
    assert type(prim) is tuple and all(type(x) is int for x in prim)
    if not any(values):
        assert prim == (0,) * len(values)
        return
    assert gcd(*prim) == 1
    ratios = {Fraction(x) / y for x, y in zip(values, prim) if y}
    assert len(ratios) == 1 and min(ratios) > 0
    assert all(y or x == 0 for x, y in zip(values, prim))
