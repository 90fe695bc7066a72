"""Exact planar line arrangements clipped to a rectangular window.

Lines are triples (a, b, c) for a*x + b*y + c = 0 with rational
coefficients.  Each is scaled to a primitive integer line whose first
nonzero of a, b is positive, which deduplicates it and gives it the
integer direction (b, -a).  The four window borders join the set as more lines;
every pair of lines is intersected once, the points inside the closed
window are sorted along each line, the edges leaving each vertex are
ordered by their integer directions, and the faces are traced.  Euler's
formula V - E + F = 2 (the outer face counted) must hold on the traced
graph, so a tracing fault raises instead of drawing a wrong figure.  The
only public entry point returns the bounded open cells inside the window
as counterclockwise vertex cycles; every cell is convex because it is an
intersection of half planes.  Points are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .errors import DegeneratePlane, FaceCountMismatch
from .fieldops import primitive


def _direction_cmp(d1, d2):
    """Counterclockwise angular order starting at direction (1, 0)."""

    def half(d):
        dx, dy = d
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cross > 0 else 1 if cross < 0 else 0


def _signed_area2(cycle) -> Fraction:
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(cycle, cycle[1:] + cycle[:1]):
        s += x1 * y2 - x2 * y1
    return s


def _integer_line(line):
    a, b, c = primitive(line)
    if a == 0 and b == 0:
        raise ValueError("degenerate line")
    if a < 0 or (a == 0 and b < 0):
        return (-a, -b, -c)
    return (a, b, c)


def arrangement_cells(lines, window):
    """Bounded open cells of the clipped line arrangement, as CCW cycles.

    ``lines`` may contain duplicates, in any scaling.  Cells are returned
    in a deterministic order, each cycle rotated so its lexicographically
    smallest vertex comes first.  A window without positive extent raises
    :class:`DegeneratePlane`; a traced graph that fails Euler's formula
    raises :class:`FaceCountMismatch`.
    """
    xmin, xmax, ymin, ymax = (Fraction(w) for w in window)
    if not (xmin < xmax and ymin < ymax):
        raise DegeneratePlane("window must have positive extent")
    borders = [(1, 0, -xmin), (1, 0, -xmax), (0, 1, -ymin), (0, 1, -ymax)]
    keys = list(dict.fromkeys(_integer_line(line) for line in borders + list(lines)))

    # every pair once; each line keeps the points inside the closed window
    on_line = [set() for _ in keys]
    for i, (a1, b1, c1) in enumerate(keys):
        for j in range(i + 1, len(keys)):
            a2, b2, c2 = keys[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            p = (Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det))
            if xmin <= p[0] <= xmax and ymin <= p[1] <= ymax:
                on_line[i].add(p)
                on_line[j].add(p)

    # outgoing edges per vertex, each as (integer direction, target)
    outgoing = {}
    edges = 0
    for (a, b, _), pts in zip(keys, on_line):
        ordered = sorted(pts, key=lambda p: b * p[0] - a * p[1])
        for u, v in zip(ordered, ordered[1:]):
            outgoing.setdefault(u, []).append(((b, -a), v))
            outgoing.setdefault(v, []).append(((-b, a), u))
            edges += 1
    rank = {}  # (vertex, neighbour) -> position in the CCW order around vertex
    for u, out in outgoing.items():
        out.sort(key=cmp_to_key(lambda e, f: _direction_cmp(e[0], f[0])))
        for k, (_, v) in enumerate(out):
            rank[u, v] = k

    cells = []
    faces = 0
    visited = set()
    for start in rank:
        if start in visited:
            continue
        faces += 1
        cycle = []
        u, v = start
        while (u, v) not in visited:
            visited.add((u, v))
            cycle.append(u)
            u, v = v, outgoing[v][rank[v, u] - 1][1]
        if _signed_area2(cycle) > 0:
            low = min(range(len(cycle)), key=lambda k: cycle[k])
            cells.append(tuple(cycle[low:] + cycle[:low]))
    if len(outgoing) - edges + faces != 2:
        raise FaceCountMismatch(
            f"traced {len(outgoing)} vertices, {edges} edges and {faces} faces"
        )
    cells.sort()
    return cells


def centroid(cycle):
    n = len(cycle)
    return (
        sum((p[0] for p in cycle), Fraction(0)) / n,
        sum((p[1] for p in cycle), Fraction(0)) / n,
    )
