"""The exact McKay engine against the earlier float path.

``reference_mckay`` keeps the float conjugacy classes and structure
constants, the numpy character table and the isomorphism search in plain
vertex order.  Both paths must agree on elements, classes, dimensions,
adjacency, characters (within 1e-9), ``mckay verify`` output and the
matching each search reports.  The comparisons with the numpy table are
skipped where numpy is not installed; the search comparisons need none.
"""

import dataclasses

import pytest

from reference_mckay import reference_build_mckay, reference_verify

from quiverstab import build_root_system, cli
from quiverstab.mckay import GroupSpec, build_mckay, verify_correspondence

SPECS = (
    [GroupSpec("cyclic", m) for m in range(2, 13)]
    + [GroupSpec("binary_dihedral", m) for m in range(2, 8)]
    + [
        GroupSpec("binary_tetrahedral"),
        GroupSpec("binary_octahedral"),
        GroupSpec("binary_icosahedral"),
    ]
)
LONG_CYCLES = [GroupSpec("cyclic", m) for m in range(13, 21)]


def _label(spec):
    return spec.label()


@pytest.fixture(scope="module")
def built():
    return {spec: build_mckay(spec) for spec in SPECS + LONG_CYCLES}


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_exact_tables_match_float_path(spec, built):
    pytest.importorskip("numpy")
    new, old = built[spec], reference_build_mckay(spec)
    assert new.elements == old.elements
    assert new.conjugacy_classes == old.conjugacy_classes
    assert new.irrep_dims == old.irrep_dims
    assert new.adjacency == old.adjacency
    assert all(isinstance(d, int) for d in new.irrep_dims)
    gap = max(
        abs(a - b)
        for row_new, row_old in zip(new.characters, old.characters)
        for a, b in zip(row_new, row_old)
    )
    assert gap < 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_mckay_verify_stdout_matches_float_path(spec, capsys, monkeypatch):
    pytest.importorskip("numpy")
    argv = ["mckay", "verify", spec.label(), spec.designated_dynkin().label()]
    assert cli.main(argv) == 0
    exact = capsys.readouterr().out
    monkeypatch.setattr(cli, "build_mckay", reference_build_mckay)
    monkeypatch.setattr(cli, "verify_correspondence", reference_verify)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == exact


@pytest.mark.parametrize("spec", SPECS + LONG_CYCLES, ids=_label)
def test_edge_ordered_search_reports_the_plain_order_matching(spec, built):
    data = built[spec]
    rs = build_root_system(spec.designated_dynkin())
    report = verify_correspondence(data, rs)
    assert report.dims_ok
    assert report == reference_verify(data, rs)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec("cyclic", 6), GroupSpec("binary_dihedral", 2), GroupSpec("binary_tetrahedral")],
    ids=_label,
)
def test_without_a_dims_match_both_searches_report_the_last_matching(spec, built):
    data = built[spec]
    wrong = (1, 7) + data.irrep_dims[2:]  # no affine ADE diagram has delta 7 anywhere
    data = dataclasses.replace(data, irrep_dims=wrong)
    rs = build_root_system(spec.designated_dynkin())
    report = verify_correspondence(data, rs)
    assert report.adjacency_ok and not report.dims_ok
    assert report == reference_verify(data, rs)
