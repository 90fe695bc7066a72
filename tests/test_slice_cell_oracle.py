"""Slice cells against sign_vector and make_theta at their centroids.

``render_slice`` builds each cell's theta and signs from integer points
and lines.  Every cell of the default slices of A1-A8 (n = 1, 2) and of
the two explicit planes of the chambers benchmark must carry the theta
that ``make_theta`` builds from the plane's rational base + s*d1 + t*d2
at the vertex average (s, t) of the cell, with the same numerators and denominator, and the
signs that ``sign_vector`` gives at that theta.
"""

from fractions import Fraction

import pytest

from quiverstab import DynkinType, build_root_system, figure_plane, make_theta, sign_vector
from quiverstab.walls import SlicePlane, render_slice

DEFAULT = [(f"A{k}", n) for k in range(1, 9) for n in (1, 2)]
# the explicit planes of the chambers benchmark, as (base, d1, d2, window)
PLANES = {
    ("A3", 2): ((1, 0, 0, 0), (-3, 2, 0, 1), (-3, 0, 2, 1), (-1, 2, -1, 2)),
    ("D4", 1): ((1, 0, 0, 0, 0), (-7, 2, 1, 1, 1), (-7, 1, 1, 1, 2), (-1, 2, -1, 2)),
}
CASES = [(label, n, None) for label, n in DEFAULT] + [
    (label, n, plane) for (label, n), plane in PLANES.items()
]


@pytest.mark.parametrize("label, n, plane", CASES)
def test_cells_match_sign_vector_and_make_theta(label, n, plane):
    rs = build_root_system(DynkinType.parse(label))
    plane = figure_plane(rs) if plane is None else SlicePlane(*plane)
    result = render_slice(rs, n, plane)
    context = tuple(n * d for d in rs.delta)
    assert result.cells
    for cell in result.cells:
        count = len(cell.vertices)
        s = sum((Fraction(x, w) for x, _, w in cell.vertices), Fraction(0)) / count
        t = sum((Fraction(y, w) for _, y, w in cell.vertices), Fraction(0)) / count
        entries = [b + s * x + t * y for b, x, y in zip(plane.base, plane.d1, plane.d2)]
        expected = make_theta(rs, context, entries)
        assert cell.theta == expected
        assert (cell.theta.nums, cell.theta.den) == (expected.nums, expected.den)
        assert cell.signs == sign_vector(result.arrangement, cell.theta)
