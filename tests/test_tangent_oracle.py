"""The closed-form relation Jacobian against the finite-difference one.

``reference_tangent`` keeps the earlier linearisation by differences of
``moment_defect`` values.  Both must give exactly equal columns, in the
same order and layout, and equal tangent dimensions, on the test corpus
lifted to the rationals and on orbit, gauge-conjugated and plus-zero
modules of types A1-A3 with n <= 3.  On random representations that are
not modules, the relation Jacobian and the gauge action have equal ranks,
which is what lets ``tangent_dimension`` take one rank for both.
"""

import random

import pytest

from corpus import POINT_POOL, build_corpus, zero_summand
from reference_tangent import (
    reference_gauge_columns,
    reference_jacobian,
    reference_tangent_dimension,
)

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    direct_sum,
    framed_orbit_sum,
    framed_quiver,
    gauge_conjugate,
    is_pi_bar_module,
    tangent_dimension,
)
from quiverstab.errors import NotAModule
from quiverstab.fieldops import QQ, PrimeField, invert, rank
from quiverstab.stabcheck import _relation_jacobian


def _rational_gauge(rng, rep):
    """Invertible integer matrices with entries in [-2, 2] at every vertex."""
    gauge = {}
    for i, d in enumerate(rep.dims.v):
        while True:
            g = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d))
            if invert(QQ, g) is not None:
                gauge[i] = g
                break
    return gauge


def _q_modules():
    rng = random.Random(20240615)
    out = []
    for m in (1, 2, 3):
        rs = build_root_system(DynkinType("A", m))
        pool = POINT_POOL["A2"]  # invariants of these points stay distinct for A1-A3
        for n in (1, 2, 3):
            orbit = framed_orbit_sum(rs, pool[:n], QQ)
            out.append((f"A{m}-n{n}-orbit", orbit))
            out.append((f"A{m}-n{n}-gauge", gauge_conjugate(orbit, _rational_gauge(rng, orbit))))
            if n < 3:
                out.append((f"A{m}-n{n}-plus-zero", direct_sum([orbit, zero_summand(rs)])))
    return out


Q_MODULES = _q_modules()
# the corpus modules over F_3, and the same entries read over Q
CORPUS = build_corpus(12)
CASES = Q_MODULES + [
    (f"{label}-{t}-n{n}-Q", FramedRep(rep.quiver, QQ, rep.dims, rep.matrices))
    for label, t, n, rep in CORPUS
]


@pytest.mark.parametrize("label, rep", CASES, ids=[case[0] for case in CASES])
def test_closed_form_matches_differences(label, rep):
    assert _relation_jacobian(rep) == reference_jacobian(rep)
    if is_pi_bar_module(rep):
        assert tangent_dimension(rep) == reference_tangent_dimension(rep)
    else:
        with pytest.raises(NotAModule):
            tangent_dimension(rep)


def test_closed_form_over_a_prime_field():
    for _, _, _, rep in CORPUS:
        assert _relation_jacobian(rep) == reference_jacobian(rep)


def test_every_q_module_is_checked_for_its_tangent():
    # the orbit, gauge and plus-zero families are modules, so their tangents are compared
    assert all(is_pi_bar_module(rep) for _, rep in Q_MODULES)


def _random_non_modules(count):
    """Seeded random representations whose relations do not vanish."""
    rng = random.Random(20261018)
    systems = [build_root_system(DynkinType.parse(t)) for t in ("A1", "A2", "A3", "D4")]
    fields = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
    out = []
    while len(out) < count:
        rs, field = rng.choice(systems), rng.choice(fields)
        quiver = framed_quiver(rs)
        dims = DimVector(rng.randint(0, 1), tuple(rng.randint(0, 3) for _ in rs.vertices))
        if isinstance(field, PrimeField):
            entries = list(range(field.p))
        else:
            entries = [0, 0, 1, -1, 2, "1/2", "-3/2"]
        matrices = {}
        for a in quiver.arrows:
            if rng.random() < 0.25:
                continue  # a zero arrow
            m, n = dims.at(a.head), dims.at(a.tail)
            matrices[a.label] = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        rep = FramedRep(quiver, field, dims, matrices)
        if not is_pi_bar_module(rep):
            out.append(rep)
    return out


def test_relation_jacobian_and_gauge_action_have_equal_rank():
    # dmu_x is the adjoint of the gauge action under the trace and symplectic forms
    for rep in _random_non_modules(200):
        field = rep.field
        assert rank(field, _relation_jacobian(rep)) == rank(field, reference_gauge_columns(rep))
