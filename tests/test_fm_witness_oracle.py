"""Fourier-Motzkin witnesses against the Fraction back-substitution.

``reference_stability.feasible_point`` rebuilds the witness in Fraction
values; the package holds it as integer numerators over one denominator.
Both must give the same rationals, or both None, on random systems of
1-6 variables with strict, non-strict and equality rows and nonzero
right-hand sides.  The systems are drawn around a random point, so many
rows are tight there and many systems are feasible.

The chamber and boundary-cone witnesses of three types are pinned by a
hash recorded while the back-substitution was still in Fractions.
"""

import hashlib
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

import reference_stability as ref
from quiverstab import ConeSpec, DynkinType, build_root_system, cone_constraints
from quiverstab.walls import _feasible_point, generic_relint_point, interior_point

RELATIONS = (">", ">=", "=")


@st.composite
def systems(draw, min_vars=1):
    nvars = draw(st.integers(min_vars, 6))
    point = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=nvars, max_size=nvars))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        coeffs = tuple(draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)))
        rel = draw(st.sampled_from(RELATIONS))
        at_point = sum(c * x for c, x in zip(coeffs, point))
        rhs = draw(st.one_of(
            st.just(at_point),  # tight at the point
            st.integers(-4, 0).map(lambda k: int(at_point) - 1 + k),  # slack there
            st.integers(-5, 5).filter(bool),
            st.fractions(-5, 5, max_denominator=6),
        ))
        rows.append((coeffs, rel, rhs))
    return nvars, rows


def _as_fractions(found):
    if found is None:
        return None
    nums, den = found
    return [Fraction(x, den) for x in nums]


@settings(max_examples=300, deadline=None)
@given(system=systems())
def test_feasible_point_matches_the_fraction_back_substitution(system):
    nvars, rows = system
    found = _feasible_point(rows, nvars)
    if found is not None:
        nums, den = found
        assert den > 0 and all(type(x) is int for x in nums)
    assert _as_fractions(found) == ref.feasible_point(rows, nvars)


@settings(max_examples=150, deadline=None)
@given(system=systems(min_vars=2), n=st.integers(1, 3), data=st.data())
def test_interior_and_generic_points_match_the_reference(system, n, data):
    nvars, rows = system
    rs = build_root_system(DynkinType("A", nvars - 1))
    got = interior_point(rs, n, rows)
    want = ref.interior_point(rs, n, rows)
    assert got == want
    if got is not None:
        assert (got.nums, got.den) == (want.nums, want.den)
    avoid = [c for c, _, _ in rows[:3]]
    avoid += data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars), max_size=3))
    got, forced = generic_relint_point(rs, n, rows, avoid)
    want, want_forced = ref.generic_relint_point(rs, n, rows, avoid)
    assert (got, forced) == (want, want_forced)
    if got is not None:
        assert (got.nums, got.den) == (want.nums, want.den)


# sha256 over the lines "kind K repr(entries)" of interior_point on every C_K
# and sigma_K, K over the subsets of the non-zero vertices
WITNESS_HASHES = {
    ("A2", 3): "e794ecaa9c98427fe356bf7524c98172744343cdf406887fa9060e431fb8c059",
    ("A3", 2): "92b63c12fbc6f4ab174b8d7f330db493a7bbd62e4139f2aa1d8de9c9f40e2bed",
    ("D4", 2): "9abb837e5240a5558efbdbfa5ce4fe9dd758ec58949e8507e87ebda4d454163d",
}


def _witness_lines(label, n):
    rs = build_root_system(DynkinType.parse(label))
    others = list(rs.vertices[1:])
    lines = []
    for size in range(len(others) + 1):
        for K in combinations(others, size):
            for kind in ("C", "sigma"):
                theta = interior_point(rs, n, cone_constraints(rs, ConeSpec(kind, n, frozenset(K))))
                lines.append(f"{kind} {K} {None if theta is None else repr(theta.entries)}")
    return lines


def test_chamber_and_cone_witnesses_are_pinned():
    for (label, n), expected in WITNESS_HASHES.items():
        text = "\n".join(_witness_lines(label, n))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (label, n)


if __name__ == "__main__":
    for label, n in WITNESS_HASHES:
        text = "\n".join(_witness_lines(label, n))
        print(f"    ({label!r}, {n}): {hashlib.sha256(text.encode()).hexdigest()!r},")
