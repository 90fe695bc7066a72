"""The lattice engine against the reference engine at non-generic theta.

``test_lattice_oracle.py`` compares the engines at the chamber vectors
theta_J, where quotient slopes seldom tie.  Here theta has small integer
entries, zero and wall vectors included, so many quotients share a slope
and the HN step must fall back on its tie-break (larger total dimension,
then the smaller dimension vector), Jordan-Hoelder factors are found
among equal slopes, and the report meets zero pairings on proper
submodules.
"""

from functools import cache

from hypothesis import example, given, settings, strategies as st

from corpus import build_corpus
from reference_lattice import reference_hn, reference_report

from quiverstab import (
    DimVector,
    DynkinType,
    FramedRep,
    build_root_system,
    framed_quiver,
    hn_filtration,
    make_theta,
    stability_report,
)
from quiverstab.fieldops import PrimeField


def _zero_arrow(type_label, v, p):
    rs = build_root_system(DynkinType.parse(type_label))
    return FramedRep(framed_quiver(rs), PrimeField(p), DimVector(1, v), {})


CASES = [(label, rep, n) for label, _, n, rep in build_corpus(12)] + [
    ("zero-A1-n1-F3", _zero_arrow("A1", (1, 1), 3), 1),
    ("zero-A1-n2-F2", _zero_arrow("A1", (2, 2), 2), 2),
]


@cache
def _reference(k, entries):
    _, rep, n = CASES[k]
    theta = make_theta(rep.quiver.rs, tuple(n * d for d in rep.quiver.rs.delta), entries)
    return theta, reference_report(rep, theta), reference_hn(rep, theta)


def _assert_engines_agree(k, entries):
    _, rep, _ = CASES[k]
    theta, (semistable, stable, witness), hn = _reference(k, entries)
    report = stability_report(rep, theta)
    assert (report.semistable, report.stable) == (semistable, stable)
    assert (report.witness and report.witness.bases) == (witness and witness.bases)
    assert hn_filtration(rep, theta) == hn


@st.composite
def case_and_theta(draw):
    k = draw(st.integers(0, len(CASES) - 1))
    width = len(CASES[k][1].quiver.rs.vertices)
    return k, tuple(draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width)))


@settings(max_examples=120, deadline=None)
@given(case_and_theta())
@example((0, (0, 0)))        # theta = 0: every quotient ties at slope 0
@example((1, (0, 0, 0)))
@example((2, (1, -1)))       # A1, on the wall of delta
@example((3, (1, 1, -2)))    # A2, on the wall of delta
@example((5, (0, 1, -1)))    # A2, on the walls of delta and alpha_0
@example((12, (1, -1)))
@example((13, (2, -2)))
@example((13, (0, 0)))
def test_engines_agree_at_integer_theta(case):
    _assert_engines_agree(*case)
