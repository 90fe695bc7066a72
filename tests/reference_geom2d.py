"""The earlier line-arrangement engine, kept as a test oracle for ``geom2d``.

It clips every line to a segment of the window, splits each segment at
every point where another segment crosses it (quadratic in the segment
count), sorts the edges around each vertex by Fraction differences and
traces the faces.  ``test_geom2d.py`` compares it with the integer line
arrangement in :mod:`quiverstab.geom2d`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from quiverstab.errors import DegeneratePlane


def line_through(p, q):
    (x1, y1), (x2, y2) = p, q
    return (y2 - y1, x1 - x2, x2 * y1 - x1 * y2)


def intersect_lines(l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x = (b1 * c2 - b2 * c1) / det
    y = (a2 * c1 - a1 * c2) / det
    return (x, y)


def _in_window(p, window) -> bool:
    xmin, xmax, ymin, ymax = window
    return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax


def clip_line(line, window):
    """Intersect a line with the window; returns a segment (p, q) or None."""
    xmin, xmax, ymin, ymax = window
    borders = [
        (Fraction(1), Fraction(0), -Fraction(xmin)),
        (Fraction(1), Fraction(0), -Fraction(xmax)),
        (Fraction(0), Fraction(1), -Fraction(ymin)),
        (Fraction(0), Fraction(1), -Fraction(ymax)),
    ]
    hits = set()
    for border in borders:
        p = intersect_lines(line, border)
        if p is not None and _in_window(p, window):
            hits.add(p)
    if len(hits) < 2:
        return None
    pts = sorted(hits)
    return (pts[0], pts[-1])


def _on_segment(p, seg) -> bool:
    (x1, y1), (x2, y2) = seg
    x, y = p
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    if cross != 0:
        return False
    dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
    length2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    return 0 <= dot <= length2


def _direction_cmp(d1, d2):
    """Counterclockwise angular order starting at direction (1, 0)."""

    def half(d):
        dx, dy = d
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _signed_area2(cycle) -> Fraction:
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(cycle, cycle[1:] + cycle[:1]):
        s += x1 * y2 - x2 * y1
    return s


def arrangement_cells(lines, window):
    """Bounded open cells of the clipped line arrangement, as CCW cycles.

    ``lines`` may contain duplicates (they are deduplicated by normalized
    coefficients).  Cells are returned in a deterministic order, each cycle
    rotated so its lexicographically smallest vertex comes first.  A
    window without positive extent raises :class:`DegeneratePlane`.
    """
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        raise DegeneratePlane("window must have positive extent")

    corners = [
        (Fraction(xmin), Fraction(ymin)),
        (Fraction(xmax), Fraction(ymin)),
        (Fraction(xmax), Fraction(ymax)),
        (Fraction(xmin), Fraction(ymax)),
    ]
    segments = [
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[3]),
        (corners[3], corners[0]),
    ]

    seen = set()
    for line in lines:
        a, b, c = line
        if a == 0 and b == 0:
            raise ValueError("degenerate line")
        lead = a if a != 0 else b
        key = (a / lead, b / lead, c / lead)
        if key in seen:
            continue
        seen.add(key)
        seg = clip_line((Fraction(a), Fraction(b), Fraction(c)), window)
        if seg is not None:
            segments.append(seg)

    # split every segment at every arrangement vertex lying on it
    supporting = [line_through(*seg) for seg in segments]
    edges = set()
    for i, seg in enumerate(segments):
        pts = {seg[0], seg[1]}
        for j, other in enumerate(segments):
            if i == j:
                continue
            p = intersect_lines(supporting[i], supporting[j])
            if p is not None and _on_segment(p, seg) and _on_segment(p, segments[j]):
                pts.add(p)
        dx = seg[1][0] - seg[0][0]
        dy = seg[1][1] - seg[0][1]
        ordered = sorted(pts, key=lambda p: p[0] * dx + p[1] * dy)
        for u, v in zip(ordered, ordered[1:]):
            if u != v:
                edges.add((u, v))
                edges.add((v, u))

    outgoing = {}
    for u, v in edges:
        outgoing.setdefault(u, []).append(v)
    for u, targets in outgoing.items():
        targets.sort(
            key=cmp_to_key(
                lambda p, q, u=u: _direction_cmp(
                    (p[0] - u[0], p[1] - u[1]), (q[0] - u[0], q[1] - u[1])
                )
            )
        )

    def next_edge(u, v):
        targets = outgoing[v]
        idx = targets.index(u)
        return (v, targets[idx - 1])

    cells = []
    visited = set()
    for start in sorted(edges):
        if start in visited:
            continue
        cycle = []
        edge = start
        while edge not in visited:
            visited.add(edge)
            cycle.append(edge[0])
            edge = next_edge(*edge)
        if edge != start:
            raise RuntimeError("face tracing did not close a cycle")
        if _signed_area2(cycle) > 0:
            low = min(range(len(cycle)), key=lambda k: cycle[k])
            cells.append(tuple(cycle[low:] + cycle[:low]))
    cells.sort()
    return cells
