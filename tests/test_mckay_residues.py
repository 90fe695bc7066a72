"""The F_q enumeration of each group is the image of its complex elements.

``mckay`` enumerates every group over F_q and computes the complex
elements only along the way.  Each residue must be the reduction of its
complex element: determinant 1, and the trace zeta_o^a + zeta_o^(-a) that
the float trace 2 cos(2 pi a / o) reads off, for an element of order o,
with zeta_o the image of exp(2 pi i / o).  A wrong root of unity or a
wrong sign of sqrt 5 gives a Galois conjugate group instead, whose traces
fail here (and whose irreps would silently trade places).
"""

import math
import random

import pytest

from test_mckay_oracle import SPECS

from quiverstab.mckay import _enumerate_group, _mat_mul, _splitting_prime


def _order(mul, one, i):
    o, x = 1, i
    while x != one:
        o, x = o + 1, mul[x][i]
    return o


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label())
def test_residues_are_the_image_of_the_complex_elements(spec):
    q, zeta = _splitting_prime(spec.order())
    elements, residues, mul, _, one, _ = _enumerate_group(spec, q, zeta)
    for i, (g, x) in enumerate(zip(elements, residues)):
        (a, b), (c, d) = x
        assert (a * d - b * c) % q == 1
        o = _order(mul, one, i)
        tr = (g[0][0] + g[1][1]).real
        k = round(math.acos(max(-1.0, min(1.0, tr / 2))) * o / (2 * math.pi))
        assert abs(2 * math.cos(2 * math.pi * k / o) - tr) < 1e-9
        z = pow(zeta, spec.order() // o, q)
        assert (a + d) % q == (pow(z, k, q) + pow(z, -k, q)) % q

    rng = random.Random(spec.order())
    for _ in range(200):
        i, j = rng.randrange(len(mul)), rng.randrange(len(mul))
        product = _mat_mul(residues[i], residues[j])
        assert residues[mul[i][j]] == tuple(tuple(v % q for v in row) for row in product)
