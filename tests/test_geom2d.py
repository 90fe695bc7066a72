"""The integer line arrangement against the earlier segment-splitting engine."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quiverstab import (
    DynkinType,
    build_arrangement,
    build_root_system,
    figure_plane,
    geom2d,
    render_slice,
)
from quiverstab.cli import main
from quiverstab.errors import FaceCountMismatch
from quiverstab.geom2d import arrangement_cells
from quiverstab.walls import SlicePlane
from reference_geom2d import arrangement_cells as reference_cells

F = Fraction
SQUARE = (-1, 1, -1, 1)

FORCED = {
    "on-border": [(1, 0, -1), (0, 1, 0)],
    "through-corner": [(1, -1, 0), (1, 0, F(1, 2))],
    "corner-touch": [(1, 1, -2), (0, 1, 0)],
    "concurrent": [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    "rescaled": [(1, 2, F(-1, 2)), (-2, -4, 1), (F(1, 3), F(2, 3), F(-1, 6)), (1, 0, 0)],
    "misses": [(1, 0, -3), (1, -1, F(1, 3))],
}


def _pairs(cells):
    """Cycles of triples (X, Y, W) as cycles of Fraction pairs (X/W, Y/W).

    Every triple must be canonical: W > 0 and gcd(X, Y, W) = 1.
    """
    for cycle in cells:
        for x, y, w in cycle:
            assert w > 0 and gcd(x, y, w) == 1
    return [tuple([(F(x, w), F(y, w)) for x, y, w in cycle]) for cycle in cells]


@pytest.mark.parametrize("case", sorted(FORCED))
def test_forced_cases_match_reference(case):
    lines = [tuple(F(x) for x in line) for line in FORCED[case]]
    assert _pairs(arrangement_cells(lines, SQUARE)) == reference_cells(lines, SQUARE)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
line = st.one_of(
    st.tuples(small, small, small).filter(lambda l: l[0] != 0 or l[1] != 0),
    st.sampled_from([line for lines in FORCED.values() for line in lines]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(line, max_size=6), st.sampled_from([SQUARE, (F(-6, 5), F(1, 2), 0, 2)]))
def test_random_arrangements_match_reference(lines, window):
    lines = [tuple(F(x) for x in l) for l in lines]
    assert _pairs(arrangement_cells(lines, window)) == reference_cells(lines, window)


def test_wrong_edge_order_fails_the_euler_check(monkeypatch):
    # keeping the edges in insertion order is no planar embedding
    monkeypatch.setattr(geom2d, "_direction_cmp", lambda d1, d2: 0)
    with pytest.raises(FaceCountMismatch):
        arrangement_cells(FORCED["concurrent"], SQUARE)


def _euler_characteristic(cells):
    """V - E + F of the graph read off the bounded cells, the outer face counted."""
    vertices = {p for cycle in cells for p in cycle}
    edges = {
        frozenset(pair)
        for cycle in cells
        for pair in zip(cycle, cycle[1:] + cycle[:1])
    }
    return len(vertices) - len(edges) + len(cells) + 1


A3_PLANE = SlicePlane((1, 0, 0, 0), (-3, 2, 0, 1), (-3, 0, 2, 1), (-1, 2, -1, 2))
D4_PLANE = SlicePlane((1, 0, 0, 0, 0), (-7, 2, 1, 1, 1), (-7, 1, 1, 1, 2), (-1, 2, -1, 2))


# every slice drawn by the tests and by the benchmark's chambers workload
@pytest.mark.parametrize(
    "type_label, n, plane",
    [("A1", 1, None), ("A1", 6, None), ("A1", 12, None), ("A2", 3, None),
     ("A3", 2, None), ("A3", 2, A3_PLANE), ("D4", 1, None), ("D4", 1, D4_PLANE),
     ("E6", 1, None)],
)
def test_slices_satisfy_euler_and_match_reference(type_label, n, plane):
    rs = build_root_system(DynkinType.parse(type_label))
    plane = plane or figure_plane(rs)
    cells = _pairs([cell.vertices for cell in render_slice(rs, n, plane, []).cells])
    assert _euler_characteristic(cells) == 2
    lines = []
    for h in build_arrangement(rs, n).hyperplanes:
        a, b, c = (
            sum(F(x) * y for x, y in zip(h, v)) for v in (plane.d1, plane.d2, plane.base)
        )
        if a != 0 or b != 0:
            lines.append((a, b, c))
    assert cells == reference_cells(lines, plane.window)


# -- the CLI around the arrangement: exit 0, 1 or 2 and never a traceback -----

number = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _rarely(draw):
    return draw(st.integers(0, 7)) == 0


def _vector(draw, size):
    """Comma-joined rationals; now and then of the wrong length or malformed."""
    if _rarely(draw):
        items = st.one_of(number.map(str), st.sampled_from(["1/0", "x", ""]))
        return ",".join(draw(st.lists(items, min_size=size - 1, max_size=size + 1)))
    return ",".join(map(str, draw(st.lists(number, min_size=size, max_size=size))))


def _n(draw):
    return draw(st.sampled_from([0, -1, "x"])) if _rarely(draw) else draw(st.integers(1, 3))


@st.composite
def slice_argv(draw):
    type_label = draw(st.sampled_from(["A1", "A2", "A3"]))
    size = int(type_label[1:]) + 1
    chunks = [f"{key}={_vector(draw, size)}" for key in ("base", "d1", "d2")]
    if _rarely(draw):
        chunks.append(f"window={_vector(draw, 4)}")
    elif draw(st.booleans()):
        s0, s1, t0, t1 = draw(st.lists(number, min_size=4, max_size=4))
        chunks.append(f"window={min(s0, s1)},{max(s0, s1)},{min(t0, t1)},{max(t0, t1)}")
    return ["walls", "slice", "--type", type_label, "-n", str(_n(draw)),
            "--plane", ";".join(chunks)]


@st.composite
def cone_argv(draw):
    type_label = draw(st.sampled_from(["A1", "A2", "A3"]))
    size = int(type_label[1:]) + 1
    doc = {
        "type": type_label,
        "n": _n(draw),
        "entries": dict(enumerate(_vector(draw, size).split(","))),
    }
    argv = ["cone", "check", "--theta", json.dumps(doc),
            "--cone", draw(st.sampled_from(["F", "C", "sigma", "sigmaKK", "G"]))]
    argv += ["--K", draw(st.sampled_from(["", "1", "1,2", "0", "2,3", "x"]))]
    argv += ["--Kp", draw(st.sampled_from(["", "1", "2"]))]
    if draw(st.booleans()):
        argv.append("--closed")
    return argv


@settings(max_examples=40, deadline=None)
@given(st.one_of(slice_argv(), cone_argv()))
def test_cli_fuzz_exits_cleanly(tmp_path_factory, argv):
    tmp = tmp_path_factory.mktemp("fuzz")
    if argv[0] == "walls":
        argv += ["--out", str(tmp / "slice.svg"), "--table", str(tmp / "cells.tsv")]
    else:
        doc = tmp / "theta.json"
        doc.write_text(argv[3])
        argv[3] = str(doc)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
