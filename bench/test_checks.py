"""Tests of the benchmark's output checks: each accepts the program's
answer and rejects a wrong one.

Run with ``python3 -m pytest bench/test_checks.py -q`` from the root of
the checkout.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import quiverstab as qs  # noqa: E402
import quiverstab.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

CAVEAT = "caveat verdict certifies the F2-reduction; characteristic-zero stability of a lift is not implied"


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(qs, cli, seed=7, workdir=tmp_path)


def _zero_doc(ctx, type_label, n, p):
    return ctx.write_doc(f"zero-{type_label}-{n}-{p}.json", workloads.zero_doc(type_label, n, p))


def _report_text(semistable, stable, witness):
    w = "-" if witness is None else " ".join(map(str, witness))
    return f"semistable {str(semistable).lower()}\nstable {str(stable).lower()}\nwitness {w}\n{CAVEAT}\n"


def _hn_text(layers):
    return "".join(
        f"layer {k} dims {' '.join(map(str, d))} slope {s} jh {';'.join(','.join(map(str, f)) for f in jh)}\n"
        for k, (d, s, jh) in enumerate(layers)
    )


# -- root data and counts ------------------------------------------------------------

def test_root_data_matches_known_values():
    assert checks.delta("D", 4) == (1, 1, 2, 1, 1)
    assert checks.delta("E", 8) == (1, 2, 3, 4, 6, 5, 4, 3, 2)
    assert len(checks.positive_roots("E", 8)) == 120
    assert len(checks.wall_normals("A2", 3)) == 16


def test_subspace_counts():
    assert checks.subspace_count(2, 2) == 5
    assert checks.subspace_count(3, 2) == 16
    assert checks.zero_arrow_lattice_size((1, 2, 2, 2), 2)[0] == 250
    assert checks.zero_arrow_lattice_size((1, 3, 3), 2)[0] == 512


def test_lattice_check_rejects_a_wrong_count(ctx):
    path = _zero_doc(ctx, "A1", 2, 3)
    op = workloads._lattice_op(ctx, "t", path, (1, 2, 2), 3)
    got = op.run()
    op.check(got)
    assert got[0] == 72
    with pytest.raises(CheckFailed):
        op.check((got[0] - 1, got[1]))
    with pytest.raises(CheckFailed):
        op.check((got[0], got[1] + 1))


# -- zero-arrow brute force against the program ----------------------------------------

@pytest.mark.parametrize("type_label,n,p", [("A1", 1, 3), ("A1", 2, 2), ("A2", 1, 2), ("A3", 1, 3)])
def test_zero_arrow_brute_force_matches_program_at_every_chamber(ctx, type_label, n, p):
    path = _zero_doc(ctx, type_label, n, p)
    for J in workloads._chambers(type_label):
        for op in workloads._stab_ops(ctx, "t", path, type_label, n, [J], zero_arrow=True):
            op.check(op.run())


def test_zero_arrow_report_check_rejects_wrong_verdicts(ctx):
    path = _zero_doc(ctx, "A2", 1, 2)
    [report] = workloads._stab_ops(ctx, "t", path, "A2", 1, [(0,)], True, ("report",))
    out = report.run()
    report.check(out)
    semistable, stable, witness = checks.parse_report(out)
    assert witness is not None
    with pytest.raises(CheckFailed):
        report.check(_report_text(not semistable, stable, witness))
    with pytest.raises(CheckFailed):
        report.check(_report_text(True, True, None))
    other = tuple(reversed(witness))
    with pytest.raises(CheckFailed):
        report.check(_report_text(semistable, stable, other))


def test_zero_arrow_hn_check_rejects_wrong_layers(ctx):
    path = _zero_doc(ctx, "A1", 2, 2)
    [hn] = workloads._stab_ops(ctx, "t", path, "A1", 2, [(0, 1)], True, ("hn",))
    out = hn.run()
    hn.check(out)
    layers = checks.parse_hn(out)
    assert len(layers) >= 2
    with pytest.raises(CheckFailed):  # layers in the wrong order
        hn.check(_hn_text(list(reversed(layers))))
    k = next(i for i, layer in enumerate(layers) if len(layer[2]) >= 2)
    d, s, jh = layers[k]
    merged = tuple(sorted(jh[2:] + (tuple(a + b for a, b in zip(jh[0], jh[1])),)))
    with pytest.raises(CheckFailed):  # a JH factor of total dimension 2
        hn.check(_hn_text(layers[:k] + [(d, s, merged)] + layers[k + 1:]))
    with pytest.raises(CheckFailed):  # slope off by one
        hn.check(_hn_text(layers[:k] + [(d, s + 1, jh)] + layers[k + 1:]))


# -- hilb --------------------------------------------------------------------------------------

def _orbit_doc(ctx, type_label, points, field, name):
    doc = json.loads(ctx.cli_untimed(["rep", "orbit-sum", "--type", type_label, "--points",
                                      workloads._points_arg(points), "--field", field]))
    return ctx.write_doc(name, doc), doc


def test_framing_cyclic_matches_program(ctx):
    rng = random.Random(3)
    path, doc = _orbit_doc(ctx, "A1", [(1, 0), (1, 1)], "F3", "orbit.json")
    broken = dict(doc, matrices=dict(doc["matrices"], b=[["0"], ["0"]]))
    for d in (doc, broken, workloads.gauge_conjugate_doc(doc, rng),
              workloads.gauge_conjugate_doc(broken, rng)):
        rep = cli.rep_from_doc(d)
        assert checks.is_framing_cyclic(d) == qs.is_framing_cyclic(rep)
    assert checks.is_framing_cyclic(doc) and not checks.is_framing_cyclic(broken)


def test_cyclic_report_check_rejects_a_stable_broken_framing(ctx):
    _, doc = _orbit_doc(ctx, "A1", [(1, 0), (1, 1)], "F3", "orbit.json")
    broken = dict(doc, matrices=dict(doc["matrices"], b=[["0"], ["0"]]))
    path = ctx.write_doc("broken.json", broken)
    [report] = workloads._stab_ops(ctx, "t", path, "A1", 2, [(0,)], which=("report",))
    out = report.run()
    report.check(out)
    assert checks.parse_report(out)[1] is False
    with pytest.raises(CheckFailed):
        report.check(_report_text(True, True, None))


def test_hn_consistency_rejects_bad_filtrations(ctx):
    entries = workloads._theta_entries(ctx.theta_doc("A2", 2, (0, 1, 2)))
    dims = (1, 2, 2, 2)
    t_inf = checks.theta_inf(entries, dims)

    def layer(d):
        return (d, checks.slope(entries, t_inf, d), (d,))

    checks.check_hn_consistent([layer(dims)], entries, dims)
    with pytest.raises(CheckFailed):  # does not add up to the module
        checks.check_hn_consistent([layer((1, 2, 2, 1))], entries, dims)
    first, second = sorted([layer((0, 1, 1, 1)), layer((1, 1, 1, 1))], key=lambda l: l[1])
    assert first[1] < second[1]
    with pytest.raises(CheckFailed):  # slopes increase
        checks.check_hn_consistent([first, second], entries, dims)


def test_tangent_and_module_checks_reject_wrong_output():
    check = workloads._tangent_check(6)
    check("tangent 6\n")
    with pytest.raises(CheckFailed):
        check("tangent 5\n")
    workloads._module_check("vertex 0\n  0\nmodule true\n")
    with pytest.raises(CheckFailed):
        workloads._module_check("vertex 0\n  1\nmodule false\n")


# -- chambers ----------------------------------------------------------------------------------

def test_slice_check_rejects_a_wrong_count_and_changed_bytes(ctx):
    op = workloads._slice_op(ctx, "A2", 3)
    out = op.run()
    op.check(out)
    cells = int(out.split()[1])
    with pytest.raises(CheckFailed):
        op.check(out.replace(f"cells {cells} ", f"cells {cells + 1} "))
    svg = Path(ctx.path("slice-A2-n3.svg"))
    svg.write_text(svg.read_text() + " ")
    with pytest.raises(CheckFailed):
        op.check(out)


@pytest.mark.parametrize("type_label,n", [("A3", 2), ("D4", 1)])
def test_zaslavsky_count_matches_program_on_planes(ctx, type_label, n):
    op = workloads._slice_op(ctx, type_label, n)
    op.check(op.run())


def test_build_check_rejects_a_missing_wall():
    check = workloads._build_check("A2", 3)
    normals = checks.wall_normals("A2", 3)
    rows = [" ".join(map(str, h)) for h in normals]
    check("\n".join([f"count {len(rows)}"] + rows) + "\n")
    with pytest.raises(CheckFailed):
        check("\n".join([f"count {len(rows) - 1}"] + rows[1:]) + "\n")
    with pytest.raises(CheckFailed):
        check("\n".join([f"count {len(rows)}"] + rows[1:] + ["1 1 1"]) + "\n")


def test_mckay_check_rejects_wrong_order_flag_and_matching():
    check = workloads._mckay_check("2T", "E6")
    good = ("group 2T order 24\ntype E6\nsum_squares_ok true\nadjacency_ok true\n"
            "dims_ok true\nmatching 0->0 1->1 2->6 3->2 4->5 5->3 6->4\n")
    check(good)
    for bad in (good.replace("order 24", "order 48"),
                good.replace("dims_ok true", "dims_ok false"),
                good.replace("0->0 1->1", "0->1 1->0"),
                good.replace(" 6->4", " 6->3")):
        with pytest.raises(CheckFailed):
            check(bad)


def test_theta_and_cone_checks_reject_wrong_output(ctx):
    theta_op, cone_op = workloads._craw_wye_ops(ctx, "A2", 3, (0, 1))
    out = theta_op.run()
    theta_op.check(out)
    cone_op.check(cone_op.run())
    with pytest.raises(CheckFailed):
        theta_op.check(out.replace("\n2 1\n", "\n2 2\n"))
    with pytest.raises(CheckFailed):
        cone_op.check("false\n")


def test_interior_point_check_rejects_a_point_outside_the_cone(ctx):
    ops = workloads._interior_ops(ctx, "A2", 3)
    for op in ops:
        op.check(op.run())
    rs = qs.build_root_system(qs.DynkinType.parse("A2"))
    outside = qs.make_theta(rs, (3, 3, 3), [Fraction(-1), Fraction(-1), Fraction(-1)])
    with pytest.raises(CheckFailed):
        ops[0].check(outside)
    with pytest.raises(CheckFailed):
        ops[0].check(None)


def test_runner_records_unparsable_output_as_a_mismatch():
    import run

    op = workloads.Op("mckay/2T", lambda: "garbled", workloads._mckay_check("2T", "E6"))
    runner = run.Runner([op])
    runner.run_pass(timed=True)
    assert (runner.attempted, runner.failed) == (1, 0)
    assert len(runner.mismatches) == 1 and runner.mismatches[0].startswith("mckay/2T: ")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
