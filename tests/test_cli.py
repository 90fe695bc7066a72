"""Command-line behavior, document round-trips, and exit codes."""

import gc
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

import quiverstab
from quiverstab import (
    DynkinType,
    build_root_system,
    craw_wye_theta,
    framed_orbit_sum,
    framed_quiver,
)
from quiverstab.cli import (
    _emit,
    build_parser,
    main,
    rep_from_doc,
    rep_to_doc,
    theta_from_doc,
    theta_to_doc,
)
from quiverstab.fieldops import PrimeField, QQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rootsys_show(capsys):
    code, out, err = run(capsys, "rootsys", "show", "A2")
    assert code == 0
    assert "delta 1 1 1" in out
    assert "positive_roots 3" in out


def test_theta_craw_wye_prints_entries(capsys, tmp_path):
    out_file = tmp_path / "theta.json"
    code, out, _ = run(
        capsys, "theta", "craw-wye", "--type", "A2", "-n", "3", "--J", "0,1",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "0 -7" in lines and "1 9" in lines and "2 1" in lines
    assert "inf -9" in lines
    doc = json.loads(out_file.read_text())
    assert doc["entries"] == {"0": "-7", "1": "9", "2": "1"}


def test_cone_check_true(capsys, tmp_path):
    theta_file = tmp_path / "theta.json"
    run(capsys, "theta", "craw-wye", "--type", "A2", "-n", "3", "--J", "0,1",
        "--out", str(theta_file))
    code, out, _ = run(
        capsys, "cone", "check", "--theta", str(theta_file), "--cone", "C", "--K", "2"
    )
    assert code == 0
    assert out.splitlines()[-1] == "true"
    code, out, _ = run(
        capsys, "cone", "check", "--theta", str(theta_file), "--cone", "F"
    )
    assert out.splitlines()[-1] == "true"


def test_zero_theta_in_fundamental_cone(capsys, tmp_path):
    theta_file = tmp_path / "zero.json"
    theta_file.write_text(json.dumps({
        "type": "A2", "n": 1, "entries": {"0": "0", "1": "0", "2": "0"}
    }))
    code, out, _ = run(
        capsys, "cone", "check", "--theta", str(theta_file), "--cone", "F"
    )
    assert code == 0 and out.splitlines()[-1] == "true"


def test_walls_build_count(capsys):
    code, out, _ = run(capsys, "walls", "build", "--type", "A2", "-n", "3")
    assert code == 0
    assert out.splitlines()[0] == "count 16"
    assert len(out.strip().splitlines()) == 17


def test_walls_slice_files_and_determinism(capsys, tmp_path):
    svg1, tsv1 = tmp_path / "a.svg", tmp_path / "a.tsv"
    svg2, tsv2 = tmp_path / "b.svg", tmp_path / "b.tsv"
    for svg, tsv in ((svg1, tsv1), (svg2, tsv2)):
        code, out, _ = run(
            capsys, "walls", "slice", "--type", "A2", "-n", "3",
            "--out", str(svg), "--table", str(tsv),
        )
        assert code == 0
        assert "labeled 4" in out
    assert svg1.read_bytes() == svg2.read_bytes()
    assert tsv1.read_bytes() == tsv2.read_bytes()
    assert svg1.read_text().startswith("<svg ")
    header = tsv1.read_text().splitlines()[0]
    assert header == "cell\tsigns\tlabel"


def test_rep_orbit_sum_and_check(capsys, tmp_path):
    rep_file = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "rep", "orbit-sum", "--type", "A1", "--points", "1,0",
        "--field", "F3", "--out", str(rep_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "rep", "check", "--rep", str(rep_file))
    assert code == 0
    assert out.strip().splitlines()[-1] == "module true"


def test_stab_report_and_hn(capsys, tmp_path):
    rep_file = tmp_path / "rep.json"
    theta_file = tmp_path / "theta.json"
    run(capsys, "rep", "orbit-sum", "--type", "A1", "--points", "1,0",
        "--field", "F3", "--out", str(rep_file))
    run(capsys, "theta", "craw-wye", "--type", "A1", "-n", "1", "--J", "0",
        "--out", str(theta_file))
    code, out, _ = run(
        capsys, "stab", "report", "--rep", str(rep_file), "--theta", str(theta_file)
    )
    assert code == 0
    assert "semistable true" in out and "stable true" in out and "witness -" in out
    code, out, _ = run(
        capsys, "stab", "hn", "--rep", str(rep_file), "--theta", str(theta_file)
    )
    assert code == 0
    assert out.startswith("layer 0 dims 1 1 1 slope 0")


def test_stab_tangent(capsys, tmp_path):
    rep_file = tmp_path / "rep.json"
    run(capsys, "rep", "orbit-sum", "--type", "A2", "--points", "1,0;2,1",
        "--field", "Q", "--out", str(rep_file))
    code, out, _ = run(capsys, "stab", "tangent", "--rep", str(rep_file))
    assert code == 0
    assert out.strip() == "tangent 4"


def test_mckay_verify_cli(capsys):
    code, out, _ = run(capsys, "mckay", "verify", "bd:2", "D4")
    assert code == 0
    assert "adjacency_ok true" in out and "dims_ok true" in out


def test_mckay_verify_long_cycle(capsys):
    code, out, _ = run(capsys, "mckay", "verify", "cyclic:40", "A39")
    assert code == 0
    assert "adjacency_ok true" in out and "dims_ok true" in out


def test_cli_import_loads_no_numpy():
    src = Path(quiverstab.__file__).resolve().parents[1]
    probe = "import sys, quiverstab.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_cli_import_builds_no_prime_field():
    # F_p for the tangent rank tests primality by trial division, milliseconds a build
    src = Path(quiverstab.__file__).resolve().parents[1]
    probe = ("import quiverstab.cli, quiverstab.stabcheck as s; "
             "print(s._modular_field.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0"


JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
JSON_DOC = st.recursive(
    JSON_LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOC)
def test_document_writer_lays_out_json_as_json_dumps(doc):
    out = []
    _emit(out, doc, "")
    assert "".join(out) == json.dumps(doc, indent=2, sort_keys=True)


def test_orbit_sum_leaves_no_cyclic_garbage(capsys):
    argv = ["rep", "orbit-sum", "--type", "A2", "--points", "1,2;3,5;7,11"]
    assert main(argv) == 0  # the first call builds the parser and the quiver
    capsys.readouterr()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert json.loads(capsys.readouterr().out)["dims"] == {"inf": 1, "0": 3, "1": 3, "2": 3}
    assert leaked == 0


def test_domain_error_exit_code_and_name(capsys):
    code, out, err = run(
        capsys, "rep", "orbit-sum", "--type", "A1", "--points", "0,0", "--field", "Q"
    )
    assert code == 1
    assert err.startswith("NonFreeOrbit")
    code, _, err = run(capsys, "mckay", "verify", "cyclic:2", "A2")
    assert code == 1
    assert err.startswith("NoIsomorphism")


def test_label_names_are_escaped_or_refused(capsys, tmp_path):
    svg = tmp_path / "slice.svg"
    argv = ["walls", "slice", "--type", "A2", "-n", "3", "--out", str(svg)]
    code, out, _ = run(capsys, *argv, "--label", "a<b&c:F:")
    assert code == 0 and "\ta<b&c\n" in out  # the table keeps the name as given
    texts = {t.text for t in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")}
    assert texts == {"a<b&c"}
    for name in ("", "-", "x\ty", "x\ny", "x\ry", "x\x01"):
        code, out, err = run(capsys, *argv, f"--label={name}:F:")
        assert (code, out) == (1, "")
        assert err.startswith("DocumentError") and err.count("\n") == 1


def test_parser_is_built_once_and_keeps_no_state(capsys, tmp_path):
    assert build_parser() is build_parser()
    svg = str(tmp_path / "slice.svg")
    slice_argv = ["walls", "slice", "--type", "A2", "-n", "3", "--out", svg]
    _, default_out, _ = run(capsys, *slice_argv)
    _, labelled_out, _ = run(capsys, *slice_argv, "--label", "C+:C:1,2")
    code, again, _ = run(capsys, *slice_argv)
    assert "C+" in labelled_out
    assert code == 0 and again == default_out != labelled_out
    assert "C[1,2]" in again and "C+" not in again
    theta_file = tmp_path / "zero.json"
    theta_file.write_text(json.dumps({
        "type": "A2", "n": 1, "entries": {"0": "0", "1": "0", "2": "0"}
    }))
    check = ["cone", "check", "--theta", str(theta_file), "--cone", "C", "--K", "2"]
    assert run(capsys, *check, "--closed") == (0, "true\n", "")
    assert run(capsys, *check) == (0, "false\n", "")
    # commands parsed by their own parser between ones the whole parser takes
    first = run(capsys, *check, "--closed")
    for argv in (["stab", "-h"], check, ["bogus"], slice_argv, ["cone", "-h"]):
        _outcome(capsys, main, argv)
    assert run(capsys, *check, "--closed") == first
    assert run(capsys, *slice_argv) == (0, default_out, "")
    rs = build_root_system(DynkinType.parse("A2"))
    assert framed_quiver(rs) is framed_quiver(build_root_system(DynkinType("A", 2)))


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["walls", "build", "--type", "A2"])  # missing -n
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["theta", "craw-wye", "--type", "A2", "-n", "\u0662", "--J", "0"],
    ["theta", "craw-wye", "--type", "A2", "-n", "1_0", "--J", "0"],
    ["walls", "build", "--type", "A2", "-n", "\u0663"],
    ["walls", "slice", "--type", "A2", "-n", " 1", "--out", "x.svg"],
    ["rep", "orbit-sum", "--type", "A1", "-n", "1.0", "--points", "1,0"],
])
def test_n_flags_read_ascii_digits_only(capsys, argv):
    # int() alone reads these as 2, 10, 3, 1 and refuses only the last
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"invalid int value: {argv[argv.index('-n') + 1]!r}\n")


# per command, one argv that parses; the flags come last so dropping the
# final pair leaves a required one out
LEAF_ARGV = {
    ("rootsys", "show"): ["A1"],
    ("mckay", "verify"): ["cyclic:2", "A1"],
    ("theta", "craw-wye"): ["--type", "A1", "-n", "1", "--J", "0"],
    ("cone", "check"): ["--theta", "t.json", "--cone", "C"],
    ("walls", "build"): ["--type", "A1", "-n", "1"],
    ("walls", "slice"): ["--type", "A1", "-n", "1", "--out", "x.svg"],
    ("rep", "check"): ["--rep", "r.json"],
    ("rep", "orbit-sum"): ["--type", "A1", "--points", "1,0"],
    ("stab", "report"): ["--rep", "r.json", "--theta", "t.json"],
    ("stab", "hn"): ["--rep", "r.json", "--theta", "t.json"],
    ("stab", "tangent"): ["--rep", "r.json"],
}


def _abbreviated(args):
    """``args`` with its first long flag cut to three characters, or ``--he``."""
    at = next((k for k, x in enumerate(args) if x.startswith("--")), None)
    if at is None:
        return args + ["--he"]
    return args[:at] + [args[at][:3]] + args[at + 1:]


def _missing(args):
    """``args`` with the last flag and its value, or the last positional, left out."""
    if any(x.startswith("-") for x in args):
        return args[:-2]
    return args[:-1]


def _usage_grid():
    """Root, group and command argvs, each with every usage or help variant."""
    groups = sorted({group for group, _ in LEAF_ARGV})
    prefixes = [([], [])] + [([g], []) for g in groups]
    prefixes += [(list(leaf), args) for leaf, args in LEAF_ARGV.items()]
    for prefix, args in prefixes:
        variants = [
            [],
            ["-h"],
            ["--help"],
            _missing(args),
            args + ["--bogus", "1"],
            _abbreviated(args),
            args + ["extra"],
            args + ["--cone", "bogus"],
            ["--"] + args,
            args + ["--"],
            args,
        ]
        for variant in variants:
            yield prefix + variant


def _parse_then_run(argv) -> int:
    """``main`` as three nested parses of the whole parser, then the command."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except quiverstab.errors.DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _outcome(capsys, entry, argv):
    try:
        code = entry(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_and_help_match_the_whole_parser(capsys, tmp_path, monkeypatch):
    """Every usage error and help text is the one the whole parser gives.

    Comparing the two paths, rather than storing the texts, keeps the test
    independent of the Python version's argparse wording.
    """
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert set(LEAF_ARGV) == set(build_parser().leaves)
    grid = list(_usage_grid())
    assert len(grid) == 11 * (1 + 7 + 11)
    for argv in grid:
        assert _outcome(capsys, main, argv) == _outcome(capsys, _parse_then_run, argv), argv


def test_rep_document_round_trip(rs_a2):
    rep = framed_orbit_sum(rs_a2, [(1, 0), (0, 1)], QQ)
    doc = rep_to_doc(rep, n=2)
    again = rep_to_doc(rep_from_doc(doc), n=2)
    assert doc == again
    rep3 = framed_orbit_sum(rs_a2, [(1, 0)], PrimeField(5))
    doc3 = rep_to_doc(rep3, n=1)
    assert doc3["field"] == "Fp" and doc3["p"] == 5
    assert rep_to_doc(rep_from_doc(doc3), n=1) == doc3


def test_theta_document_round_trip(rs_a3):
    theta = craw_wye_theta(rs_a3, {0, 2}, 2)
    doc = theta_to_doc(theta)
    again = theta_from_doc(doc)
    assert again.entries == theta.entries
    assert again.theta_inf == theta.theta_inf
    assert theta_to_doc(again) == doc


def test_malformed_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"type\": \"A1\"}")
    code, _, err = run(capsys, "cone", "check", "--theta", str(bad), "--cone", "F")
    assert code == 1
    assert err.startswith("DocumentError")
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "rep", "check", "--rep", str(missing))
    assert code == 1
    assert err.startswith("DocumentError")


HUGE_PRIME = 100000000000000000039  # trial division would take about 10^10 steps


MANY_POINTS = ";".join(f"1,{k}" for k in range(1, 101))  # 100 free orbits, total 201
# the A2 plane spanning the wall 5e8*delta + alpha_1 = (m, m + 1, m)
IN_A_WALL = "base=1,0,-1;d1=1,0,-1;d2=500000001,-500000000,0;window=0,1,0,1"


def _fp_doc_with_entry(entry):
    return {
        "type": "A1", "n": 1, "field": "Fp", "p": 3,
        "dims": {"inf": 1, "0": 1, "1": 1},
        "matrices": {"b": [[entry]]},
    }


@pytest.mark.parametrize(
    "argv, error",
    [
        (["rep", "orbit-sum", "--type", "A1", "--points", "1,0", "--field", "F4"], "UnsupportedField"),
        (["rep", "orbit-sum", "--type", "A1", "--points", "1/0,1"], "DocumentError"),
        (["rep", "check", "--rep", "{rep}"], "NonIntegralEntry"),
        (["stab", "report", "--rep", "{rep}", "--theta", "{theta}"], "NonIntegralEntry"),
        (["cone", "check", "--theta", "{bad_theta}", "--cone", "F"], "DocumentError"),
        (["theta", "craw-wye", "--type", "A2", "-n", "0", "--J", "0"], "BadSubset"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}",
          "--plane", "base=0,0;d1=1,0;d2=0,1;window=0,0,0,1"], "DegeneratePlane"),
        (["mckay", "verify", "cyclic:x", "A1"], "InvalidRank"),
        (["mckay", "verify", "bd:", "D4"], "InvalidRank"),
        (["mckay", "verify", "bd:x", "D4"], "InvalidRank"),
        (["mckay", "verify", "cyclic:1.5", "A1"], "InvalidRank"),
        (["mckay", "verify", "cyclic:1000", "A999"], "GroupTooLarge"),
        (["rep", "check", "--rep", "{int_type_rep}"], "DocumentError"),
        (["cone", "check", "--theta", "{int_type_theta}", "--cone", "F"], "DocumentError"),
        (["rep", "check", "--rep", "{list_matrices}"], "DocumentError"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{nowhere}/x.svg"],
         "DocumentError"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}",
          "--table", "{nowhere}/x.tsv"], "DocumentError"),
        (["theta", "craw-wye", "--type", "A2", "-n", "1", "--J", "0",
          "--out", "{nowhere}/t.json"], "DocumentError"),
        (["rep", "orbit-sum", "--type", "A1", "--points", "1,0",
          "--out", "{nowhere}/r.json"], "DocumentError"),
        (["rep", "check", "--rep", "{huge_p}"], "UnsupportedField"),
        (["stab", "report", "--rep", "{huge_p}", "--theta", "{theta}"], "UnsupportedField"),
        (["rep", "orbit-sum", "--type", "A1", "--points", "1,0",
          "--field", f"F{HUGE_PRIME}"], "UnsupportedField"),
        (["walls", "slice", "--type", "A2", "-n", "32", "--out", "{svg}"], "SliceTooLarge"),
        (["cone", "check", "--theta", "{infinite_n}", "--cone", "F"], "DocumentError"),
        (["rep", "check", "--rep", "{infinite_p}"], "DocumentError"),
        (["stab", "tangent", "--rep", "{big_dims}"], "DimensionTooLarge"),
        (["rep", "check", "--rep", "{big_dims}"], "DimensionTooLarge"),
        (["rep", "orbit-sum", "--type", "A1", "--points", MANY_POINTS], "DimensionTooLarge"),
        (["walls", "slice", "--type", "A2", "-n", "1000000000", "--out", "{svg}"],
         "SliceTooLarge"),
        (["walls", "slice", "--type", "A2", "-n", "1000000000", "--out", "{svg}",
          "--plane", IN_A_WALL], "DegeneratePlane"),
        (["theta", "craw-wye", "--type", "A99999999", "-n", "1", "--J", "0"], "InvalidRank"),
        (["theta", "craw-wye", "--type", "A120", "-n", "1", "--J", "0"], "InvalidRank"),
        (["rep", "orbit-sum", "--type", "D33", "--points", "1,0"], "InvalidRank"),
        (["rep", "check", "--rep", "{huge_type_rep}"], "InvalidRank"),
        (["theta", "craw-wye", "--type", "A\u00b2", "-n", "1", "--J", "0"], "InvalidRank"),
        (["theta", "craw-wye", "--type", "A" + "1" * 5000, "-n", "1", "--J", "0"],
         "InvalidRank"),
        (["cone", "check", "--theta", "{huge_exponent_theta}", "--cone", "F"], "DocumentError"),
        (["rep", "check", "--rep", "{tiny_exponent_rep}"], "DocumentError"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}",
          "--plane", "base=1e9999999,0;d1=1,0;d2=0,1"], "DocumentError"),
        (["walls", "build", "--type", "A2", "-n", "1000000000"], "ArrangementTooLarge"),
        (["walls", "build", "--type", "A119", "-n", "5"], "ArrangementTooLarge"),
        (["walls", "slice", "--type", "A119", "-n", "1", "--out", "{svg}"], "SliceTooLarge"),
        (["walls", "slice", "--type", "D32", "-n", "1", "--out", "{svg}"], "SliceTooLarge"),
        (["rep", "orbit-sum", "--type", "A1", "--points", "1,2", "--field", "F\u00b2"],
         "DocumentError"),
        (["rep", "orbit-sum", "--type", "A1", "--points", "1,2", "--field", "F" + "7" * 5000],
         "DocumentError"),
        # int() alone reads these as 10, 3, 3, 3 and 6
        (["mckay", "verify", "cyclic:1_0", "A9"], "InvalidRank"),
        (["mckay", "verify", "cyclic:\u0663", "A2"], "InvalidRank"),
        (["mckay", "verify", "bd:\uff13", "D5"], "InvalidRank"),
        (["rootsys", "show", "A\u0663"], "InvalidRank"),
        (["rootsys", "show", "E\uff16"], "InvalidRank"),
        # int() alone reads these as 2, 1, 3, 1 and 3, and Fraction the entries exactly
        (["cone", "check", "--theta", "{float_n}", "--cone", "F"], "DocumentError"),
        (["cone", "check", "--theta", "{bool_n}", "--cone", "F"], "DocumentError"),
        (["rep", "check", "--rep", "{float_p}"], "DocumentError"),
        (["rep", "check", "--rep", "{float_dims}"], "DocumentError"),
        (["rep", "check", "--rep", "{arabic_dims}"], "DocumentError"),
        (["cone", "check", "--theta", "{theta}", "--cone", "C", "--K", "\u0661"],
         "DocumentError"),
        (["rep", "orbit-sum", "--type", "A1", "--points", "1,2", "--field", "F\u0663"],
         "DocumentError"),
        (["cone", "check", "--theta", "{float_entry}", "--cone", "F"], "DocumentError"),
        (["cone", "check", "--theta", "{bool_entry}", "--cone", "F"], "DocumentError"),
        (["rep", "check", "--rep", "{float_entry_rep}"], "DocumentError"),
        # theta for (1, 3 delta), the module is (1, 2 delta)
        (["stab", "report", "--rep", "{orbit_f5}", "--theta", "{theta_n3}"], "ContextMismatch"),
        (["stab", "hn", "--rep", "{orbit_f5}", "--theta", "{theta_n3}"], "ContextMismatch"),
        # a D4 theta has as many entries as an A4 module has vertices
        (["stab", "report", "--rep", "{zero_a4}", "--theta", "{theta_d4}"], "ContextMismatch"),
        (["stab", "hn", "--rep", "{zero_a4}", "--theta", "{theta_d4}"], "ContextMismatch"),
        # these were read entry by entry: "12" as [1, 2], a dict by its keys
        (["rep", "check", "--rep", "{string_rows}"], "DocumentError"),
        (["rep", "check", "--rep", "{dict_matrix}"], "DocumentError"),
        (["rep", "check", "--rep", "{string_matrix}"], "DocumentError"),
        (["rep", "check", "--rep", "{float_n_rep}"], "DocumentError"),
        (["rep", "check", "--rep", "{bool_n_rep}"], "DocumentError"),
        (["rep", "check", "--rep", "{text_n_rep}"], "DocumentError"),
        # json.load raises ValueError or RecursionError: bad UTF-8, nesting, a long int
        (["rep", "check", "--rep", "{not_utf8}"], "DocumentError"),
        (["rep", "check", "--rep", "{deep}"], "DocumentError"),
        (["cone", "check", "--theta", "{long_n}", "--cone", "F"], "DocumentError"),
        # the same digit limit for integers written as strings, in any digit run
        (["cone", "check", "--theta", "{long_n_text}", "--cone", "F"], "DocumentError"),
        (["cone", "check", "--theta", "{long_denominator}", "--cone", "F"], "DocumentError"),
        (["cone", "check", "--theta", "{long_decimal}", "--cone", "F"], "DocumentError"),
        (["rep", "check", "--rep", "{long_entry_rep}"], "DocumentError"),
        (["walls", "build", "--type", "A2", "-n", "0"], "ContextMismatch"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}", "--plane", "junk"],
         "DocumentError"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}",
          "--plane", "base=1,0,0"], "DocumentError"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}",
          "--plane", "base=0,0;d1=1,0;d2=0,1;window=0,1"], "DocumentError"),
        (["walls", "slice", "--type", "A1", "-n", "1", "--out", "{svg}", "--label", "a:b"],
         "DocumentError"),
        (["rep", "orbit-sum", "--type", "A1", "--points", ";"], "DocumentError"),
        (["rep", "orbit-sum", "--type", "A1", "-n", "3", "--points", "1,0"], "DocumentError"),
    ],
    ids=["non-prime-field", "zero-denominator-point", "fp-entry-check", "fp-entry-report",
         "zero-denominator-theta", "craw-wye-n0", "zero-extent-window",
         "group-order-word", "group-order-empty", "group-order-word-bd", "group-order-fraction",
         "group-too-large", "int-type-rep", "int-type-theta", "list-matrices",
         "unwritable-slice-out", "unwritable-slice-table", "unwritable-craw-wye-out",
         "unwritable-orbit-sum-out", "huge-prime-check", "huge-prime-report",
         "huge-prime-flag", "slice-too-large", "infinite-n", "infinite-p",
         "big-dims-tangent", "big-dims-check", "too-many-points", "slice-huge-n",
         "slice-huge-n-in-a-wall", "rank-huge", "rank-over-cap", "rank-over-cap-d",
         "rank-over-cap-doc", "rank-superscript-digit", "rank-5000-digits",
         "exponent-theta-entry", "exponent-rep-matrix", "exponent-plane", "build-huge-n",
         "build-a119-n5", "slice-a119-n1", "slice-d32-n1", "field-superscript-digit",
         "field-5000-digits", "group-order-underscore", "group-order-arabic-digit",
         "group-order-fullwidth-digit", "rank-arabic-digit", "rank-fullwidth-digit",
         "float-n", "bool-n", "float-p", "float-dims", "arabic-digit-dims",
         "arabic-digit-vertex", "field-arabic-digit", "float-entry", "bool-entry",
         "float-entry-rep", "theta-other-n-report", "theta-other-n-hn",
         "theta-other-type-report", "theta-other-type-hn", "string-rows", "dict-matrix",
         "string-matrix", "float-n-rep", "bool-n-rep", "text-n-rep", "not-utf8",
         "nested-too-deep", "n-5000-digits", "n-5000-digit-string",
         "denominator-5000-digits", "decimal-5000-digits", "rep-entry-5000-digits",
         "build-n0", "plane-junk-chunk",
         "plane-without-directions", "plane-window-2-entries", "label-two-fields",
         "no-points", "n-disagrees-with-points"],
)
def test_bad_input_is_one_domain_error_line(capsys, tmp_path, argv, error):
    docs = {
        "rep": _fp_doc_with_entry("1/3"),  # 3 divides the denominator
        "theta": {"type": "A1", "n": 1, "entries": {"0": "1", "1": "1"}},
        "bad_theta": {"type": "A1", "n": 1, "entries": {"0": "1/0", "1": "1"}},
        "int_type_rep": {**_fp_doc_with_entry("1"), "type": 5},
        "int_type_theta": {"type": 5, "n": 1, "entries": {"0": "1", "1": "1"}},
        "list_matrices": {**_fp_doc_with_entry("1"), "matrices": [1]},
        "huge_p": {**_fp_doc_with_entry("1"), "p": HUGE_PRIME},
        "infinite_n": {"type": "A1", "n": float("inf"), "entries": {"0": "1", "1": "1"}},
        "infinite_p": {**_fp_doc_with_entry("1"), "p": float("inf")},  # JSON Infinity
        "big_dims": {"type": "A1", "n": 1, "field": "Q", "dims": {"inf": 1, "0": 20, "1": 20}},
        "huge_type_rep": {**_fp_doc_with_entry("1"), "type": "A99999"},
        # Fraction would expand these exponents into ten-million-digit integers
        "huge_exponent_theta": {"type": "A1", "n": 1, "entries": {"0": "1e9999999", "1": "1"}},
        "tiny_exponent_rep": _fp_doc_with_entry("1e-9999999"),
        "float_n": {"type": "A1", "n": 2.7, "entries": {"0": "1", "1": "1"}},
        "bool_n": {"type": "A1", "n": True, "entries": {"0": "1", "1": "1"}},
        "float_p": {**_fp_doc_with_entry("1"), "p": 3.9},
        "float_dims": {**_fp_doc_with_entry("1"), "dims": {"inf": 1.5, "0": 1, "1": 1}},
        "arabic_dims": {**_fp_doc_with_entry("1"), "dims": {"inf": 1, "0": 1, "1": "\u0663"}},
        "float_entry": {"type": "A2", "n": 1, "entries": {"0": 0.1, "1": "1", "2": "1"}},
        "bool_entry": {"type": "A2", "n": 1, "entries": {"0": "1", "1": True, "2": "1"}},
        "float_entry_rep": _fp_doc_with_entry(0.5),
        "orbit_f5": rep_to_doc(framed_orbit_sum(A1, [(1, 0), (0, 1)], PrimeField(5)), n=2),
        "theta_n3": theta_to_doc(craw_wye_theta(A1, {0}, 3)),
        "zero_a4": {"type": "A4", "n": 1, "field": "Fp", "p": 2,
                    "dims": {"inf": 1, **{str(i): 1 for i in range(5)}}},
        "theta_d4": {"type": "D4", "n": 1, "entries": {str(i): "1" for i in range(5)}},
        "string_rows": {**_fp_doc_with_entry("1"), "matrices": {"e:0-1": ["12", "34"]}},
        "dict_matrix": {**_fp_doc_with_entry("1"), "matrices": {"b": {"1": 0, "0": 1}}},
        "string_matrix": {**_fp_doc_with_entry("1"), "matrices": {"b": "1"}},
        "float_n_rep": {**_fp_doc_with_entry("1"), "n": 2.7},
        "bool_n_rep": {**_fp_doc_with_entry("1"), "n": True},
        "text_n_rep": {**_fp_doc_with_entry("1"), "n": "zz"},
        "long_n_text": {"type": "A1", "n": "9" * 5000, "entries": {"0": "1", "1": "1"}},
        "long_denominator": {"type": "A1", "n": 1, "entries": {"0": "1/" + "9" * 5000, "1": "1"}},
        "long_decimal": {"type": "A1", "n": 1, "entries": {"0": "0." + "9" * 5000, "1": "1"}},
        "long_entry_rep": _fp_doc_with_entry("9" * 5000),
    }
    paths = {"svg": tmp_path / "x.svg", "nowhere": tmp_path / "missing"}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    raw = {  # documents json.dumps does not write
        "not_utf8": b"\xff\xfe{}",
        "deep": b"[" * 100000 + b"]" * 100000,
        "long_n": b'{"type": "A1", "n": ' + b"9" * 5000 + b', "entries": {"0": "1", "1": "1"}}',
    }
    for name, data in raw.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    start = time.monotonic()
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert time.monotonic() - start < 1.0  # a refusal stays cheap
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(error + ": ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err  # advice a command-line user cannot act on
    if "{long_n}" in argv:  # the line names the limit, not Python's advice to raise it
        assert err == (f"DocumentError: cannot read {paths['long_n']}: "
                       "an integer of 5000 digits is over the limit of 4300\n")


def test_rep_check_prints_a_zero_dimensional_vertex_as_empty(capsys, tmp_path):
    # vertex 1 has dimension 0, so its relation defect is the empty matrix
    doc = {"type": "A2", "n": 1, "field": "Q", "dims": {"inf": 1, "0": 1, "1": 0, "2": 2},
           "matrices": {"b": [["2"]], "b*": [["3"]], "e:0-2": [["1"], ["2"]],
                        "e*:2-0": [["3", "1"]]}}
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "rep", "check", "--rep", str(rep_file))
    assert code == 0
    assert out == "vertex 0\n  1\nvertex 1\n  (empty)\nvertex 2\n  3 1\n  6 2\nmodule false\n"


def test_rational_literals_up_to_the_exponent_cap_parse():
    doc = {"type": "A1", "n": 1, "entries": {"0": "25e-1", "1": "1E4_300"}}
    assert theta_from_doc(doc).entries == (Fraction(5, 2), Fraction(10**4300))


@pytest.mark.parametrize("text", [
    "7", "-0", "+3", " 7", "\u0663", "\u00b2", "1_0", "1e3", "3/6", "9" * 5000, "-" + "1" * 5000,
])
def test_integer_entries_read_as_fraction_reads_them(text):
    # plain ASCII integers skip Fraction's parser; the value, or the kind of
    # refusal, is the one Fraction(text) gives
    from quiverstab.cli import _rational

    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            _rational(text)
    else:
        assert _rational(text) == expected


def _regex_rational(value):
    """``cli._rational`` as it read plain integers with a regex."""
    import re

    from quiverstab.cli import MAX_EXPONENT, DocumentError

    if isinstance(value, str):
        if re.fullmatch(r"[-+]?[0-9]+", value):
            return int(value)
        match = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", value, re.IGNORECASE)
        if match and abs(int(match.group(1))) > MAX_EXPONENT:
            raise DocumentError("exponent")
    return Fraction(value)


@pytest.mark.parametrize("text", [
    "+5", "-0", "05", " 5", "1_0", "١٢", "²", "", "+", "1e5", "1/2",
    "-", "5\n", "+-5", "e9999", 7, Fraction(1, 3),
])
def test_rational_reads_what_the_integer_regex_read(text):
    from quiverstab.cli import _rational

    def outcome(read):
        try:
            value = read(text)
        except Exception as exc:
            return type(exc)
        return value, type(value)

    assert outcome(_rational) == outcome(_regex_rational)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_integer_document_entries_coerce_to_the_same_types(rs_a2, field):
    rep = framed_orbit_sum(rs_a2, [(1, 0), (0, 1)], field)
    doc = rep_to_doc(rep, n=2)
    assert any(x.lstrip("-").isdigit() for mat in doc["matrices"].values()
               for row in mat for x in row)
    again = rep_from_doc(doc)
    for label, mat in rep.matrices.items():
        assert again.matrix(label) == mat
        assert [type(x) for row in again.matrix(label) for x in row] == [
            type(x) for row in mat for x in row
        ]


@pytest.mark.parametrize("type_label, cells", [("A11", 23), ("A12", 23), ("D12", 47), ("E8", 96)])
def test_default_labels_are_found_per_cell(capsys, tmp_path, type_label, cells):
    # trying all 2^rank chambers at every cell took 10 s for A11 and 1 s for E8
    start = time.monotonic()
    code, out, err = run(capsys, "walls", "slice", "--type", type_label, "-n", "1",
                         "--out", str(tmp_path / "x.svg"))
    assert time.monotonic() - start < 1.0
    assert code == 0 and err == ""
    assert out.endswith(f"cells {cells} labeled 1\n")


def test_largest_group_verifies_quickly(capsys):
    # one eigenline per irrep and an o x o transform per character value took 5-6 s
    start = time.monotonic()
    code, out, err = run(capsys, "mckay", "verify", "cyclic:120", "A119")
    assert time.monotonic() - start < 2.0
    assert code == 0 and err == ""
    assert "adjacency_ok true\n" in out and "dims_ok true\n" in out


def test_huge_n_slice_refusals_are_exact(capsys, tmp_path):
    svg = str(tmp_path / "x.svg")
    n = 10**9
    _, _, err = run(capsys, "walls", "slice", "--type", "A2", "-n", str(n), "--out", svg)
    # 1 + (2n - 1) * 3 walls; only delta + alpha_1 + alpha_2 = (1, 2, 2) misses the figure plane
    assert err == f"SliceTooLarge: {3 * (2 * n - 1)} walls meet the slice plane, more than 100\n"
    _, _, err = run(capsys, "walls", "slice", "--type", "A2", "-n", str(n), "--out", svg,
                    "--plane", IN_A_WALL)
    m = 500000000
    assert err == f"DegeneratePlane: wall ({m}, {m + 1}, {m}) contains the whole slice plane\n"


# -- mutated documents through every document-reading subcommand -------------

A1, A2 = (quiverstab.build_root_system(quiverstab.DynkinType.parse(t)) for t in ("A1", "A2"))
REPS = [rep_to_doc(framed_orbit_sum(A1, [(1, 0)], PrimeField(3)), n=1),
        rep_to_doc(framed_orbit_sum(A2, [(1, 0)], QQ), n=1)]
THETAS = [{"type": "A1", "n": 1, "entries": {"0": "1", "1": "-1/2"}},
          {"type": "A1", "n": 2, "entries": {"0": "1", "1": "-1/2"}},
          {"type": "A2", "n": 1, "entries": {"0": "-1", "1": "1", "2": "1"}}]
# a fresh object per draw, so no mutation can nest a value inside itself
json_value = st.one_of(
    st.integers(-1, 2), st.floats(-2, 2),
    st.sampled_from(['null', 'true', 'Infinity', '""', '"x"', '"1/0"', '"2"', '"F3"', '[]',
                     '[1]', '[["1"]]', '{}', '"12"', '{"1": 0, "0": 1}']).map(json.loads),
)


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, docs):
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(["swap", "drop", "huge_p"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[key]
        elif action == "huge_p" and "field" in doc:
            doc["field"] = "Fp"
            doc["p"] = draw(st.sampled_from([HUGE_PRIME, 2**31 - 1, 2**31 + 11]))
        else:
            parent[key] = draw(json_value)
    return doc


# K and Kp lists for `cone check`: valid for A1 and A2, out of range, or malformed
cone_vertices = st.one_of(
    st.sampled_from(["", "1", "2", "1,2", "2,1"]),
    st.sampled_from(["0", "3", "-1", "1,1", "12", "99999999999999999999"]),
    st.sampled_from(["x", "1,,2", "1;2", ",", " 1 ", "1.5", "1/2"]),
)
cone_flags = st.builds(
    lambda cone, K, Kp, closed: ["--cone", cone, f"--K={K}", f"--Kp={Kp}"]
    + (["--closed"] if closed else []),
    st.sampled_from(["F", "C", "sigma", "sigmaKK"]), cone_vertices, cone_vertices, st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["rep check", "stab report", "stab hn", "stab tangent", "cone check"]),
    rep=mutated(REPS),
    theta=mutated(THETAS),
    flags=cone_flags,
)
def test_mutated_documents_exit_cleanly(tmp_path_factory, command, rep, theta, flags):
    tmp = tmp_path_factory.mktemp("docs")
    rep_file, theta_file = tmp / "rep.json", tmp / "theta.json"
    rep_file.write_text(json.dumps(rep))
    theta_file.write_text(json.dumps(theta))
    argv = command.split()
    if command == "cone check":
        argv += ["--theta", str(theta_file)] + flags
    else:
        argv += ["--rep", str(rep_file)]
        if command in ("stab report", "stab hn"):
            argv += ["--theta", str(theta_file)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- the flag-only commands -------------------------------------------------------

# the largest types A119 and D32 build their root systems in under a second
dynkin_label = st.one_of(
    st.builds("{}{}".format, st.sampled_from("ADEXade"), st.integers(-1, 12)),
    st.sampled_from(["A119", "D32", "A120", "D33", "A99999999", "A", "", " a2 ", "A\u00b2",
                     "A1.5", "-A1"]),
    st.text(max_size=3),
)
integer_text = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["1000000000", "x", ""]))
vertex_set = st.one_of(
    st.lists(st.integers(-1, 13), max_size=3).map(lambda vs: ",".join(map(str, vs))),
    st.sampled_from(["0,0", "x", "0;1", ",", " 1 "]),
    st.text(max_size=3),
)
coordinate = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "99999999999999999999", "1/0", "0.5", "x", ""]),
)
point_list = st.one_of(
    st.lists(st.tuples(coordinate, coordinate), max_size=3).map(
        lambda pts: ";".join(f"{x},{y}" for x, y in pts)),
    st.sampled_from(["1", "1,2,3", "1;;2,3", "0,0"]),
    st.text(max_size=4),
)
field_text = st.one_of(
    st.sampled_from(["Q", "F2", "F3", "F7", "F4", "F1", "F0", "F-3", "Fx", "F", "q", "f5",
                     f"F{HUGE_PRIME}", f"F{2**31 - 1}", "F\u00b2"]),
    st.text(max_size=3),
)
craw_wye_argv = st.builds(
    lambda t, n, J: ["theta", "craw-wye", f"--type={t}", f"-n{n}", f"--J={J}"],
    dynkin_label, integer_text, vertex_set,
)
orbit_sum_argv = st.builds(
    lambda t, n, pts, f: ["rep", "orbit-sum", f"--type={t}", f"--points={pts}", f"--field={f}"]
    + ([] if n is None else [f"-n{n}"]),
    dynkin_label, st.none() | integer_text, point_list, field_text,
)
# Every cyclic order up to the cap is drawn: cyclic:120, the slowest group,
# builds in about 0.25 s in-process (see test_largest_group_verifies_quickly).
group_text = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["cyclic", "bd"]),
              st.one_of(st.integers(-1, 120), st.sampled_from([121, 1000]))),
    st.sampled_from(["2T", "2O", "2I", "2t", " 2i ", "2X", "cyclic:", "bd:x", "cyclic:1.5", "",
                     "cyclic:1_0", "cyclic:\u0663", "bd:\uff13", "cyclic: 5"]),
    st.text(max_size=4),
)
mckay_verify_argv = st.builds(lambda g, t: ["mckay", "verify", g, t], group_text, dynkin_label)
walls_build_argv = st.builds(
    lambda t, n: ["walls", "build", f"--type={t}", f"-n{n}"], dynkin_label, integer_text,
)
# valid types, ranks and labels most of the time, so that many slices are drawn
valid_type = st.sampled_from([f"A{r}" for r in range(1, 13)] + [f"D{r}" for r in range(4, 13)]
                             + ["E6", "E7", "E8", "A119", "D32"])
# names a cell may carry, and names the CLI refuses ("-", a tab, a line break)
label_name = st.sampled_from(["X", "C+", "a<b", "&", "a<b&c>", "-", "x\ty", "x\ny", "x\ry", ""])
chamber_label_text = st.one_of(
    st.builds("{}:C:{}".format, label_name,
              st.lists(st.integers(1, 12), max_size=3).map(lambda vs: ",".join(map(str, vs)))),
    st.builds("{}:F:".format, label_name),  # F holds cells of every default slice
)
label_text = st.one_of(
    st.builds("{}:{}:{}".format, label_name,
              st.sampled_from(["C", "F", "sigma", "sigmaKK", "G"]), vertex_set),
    st.builds("W:sigmaKK:{}:{}".format, vertex_set, vertex_set),
    st.text(max_size=4),
)
plane_entry = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-2/3"])


@st.composite
def walls_slice_argv(draw):
    """A slice of any type up to the caps, mostly with valid flags.

    A drawn plane mostly has one entry per vertex; labels are left out half
    of the time, when every cell gets its default C_K label.
    """

    def mostly(valid, other):
        return draw(other if draw(st.integers(0, 3)) == 0 else valid)

    type_text = mostly(valid_type, dynkin_label)
    n = mostly(st.integers(1, 4).map(str), integer_text)
    argv = ["walls", "slice", f"--type={type_text}", f"-n{n}", "--out={out}"]
    if draw(st.booleans()):
        count = draw(st.integers(1, 3))
        argv += [f"--label={mostly(chamber_label_text, label_text)}" for _ in range(count)]
    if draw(st.integers(0, 3)) == 0:
        rank = type_text[1:]
        size = int(rank) + 1 if rank.isdecimal() and len(rank) < 4 else draw(st.integers(1, 4))
        size += draw(st.sampled_from([0, 0, 0, 1, -1]))
        entry = plane_entry if draw(st.integers(0, 3)) else coordinate
        chunks = [f"{key}=" + ",".join(draw(st.lists(entry, min_size=size, max_size=size)))
                  for key in ("base", "d1", "d2")]
        if draw(st.booleans()):
            chunks.append("window=" + ",".join(draw(st.lists(entry, min_size=4, max_size=4))))
        argv.append("--plane=" + ";".join(chunks))
    return argv


rootsys_show_argv = st.one_of(valid_type, dynkin_label).map(lambda t: ["rootsys", "show", t])


@settings(max_examples=100, deadline=None)
@given(argv=st.one_of(craw_wye_argv, orbit_sum_argv, mckay_verify_argv, walls_build_argv,
                      walls_slice_argv(), rootsys_show_argv))
def test_flag_only_commands_exit_cleanly(tmp_path_factory, argv):
    out_path = tmp_path_factory.mktemp("flags") / "slice.svg"
    argv = [arg.replace("{out}", str(out_path)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.monotonic() - start < 1.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if argv[:2] == ["walls", "slice"] and code == 0:
        ElementTree.parse(out_path)  # well-formed whatever the label names
        *rows, summary = out.getvalue().splitlines()
        assert summary.startswith("cells ")
        assert all(len(row.split("\t")) == 3 for row in rows)
