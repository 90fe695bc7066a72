"""Exact planar line arrangements clipped to a rectangular window.

Lines are triples (a, b, c) for a*x + b*y + c = 0 with rational
coefficients.  Each is scaled to a primitive integer line whose first
nonzero of a, b is positive, which deduplicates it and gives it the
integer direction (b, -a).  The four window borders join the set as more
lines, and every pair of lines is intersected once.  A point is an integer
homogeneous triple (X, Y, W) for (X/W, Y/W), with W > 0 and gcd 1, so
equal points have equal triples, and the window test compares int
products.  The points inside the closed window are ranked once in
lexicographic order, which along each line is the order of its points read
forwards or backwards; the 2L directions of the L lines are ranked once by
angle, the edges leaving each vertex are ordered by those ranks, and the
faces are traced.  A face is a cell when it turns counterclockwise at its
lexicographically least vertex, a strict corner of every traced face,
which one integer 3x3 determinant decides.
Euler's formula V - E + F = 2 (the outer face counted) must hold on the
traced graph, so a tracing fault raises instead of drawing a wrong figure.
The window is read as int numerators over one common denominator, and
its borders are int lines.  The only public entry point returns the
bounded open cells inside the window as counterclockwise vertex cycles of
those triples; every cell is convex because it is an intersection of half
planes.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd

from .errors import DegeneratePlane, FaceCountMismatch
from .fieldops import over_lcd, primitive


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


def _lex_cmp(p, q):
    """Lexicographic (x, y) order of two homogeneous points with W > 0."""
    (x1, y1, w1), (x2, y2, w2) = p, q
    d = x1 * w2 - x2 * w1 or y1 * w2 - y2 * w1
    return (d > 0) - (d < 0)


def _turn(p, q, r) -> int:
    """det(p, q, r) of three homogeneous points: > 0 when p, q, r turn left."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = p, q, r
    return x1 * (y2 * w3 - y3 * w2) - y1 * (x2 * w3 - x3 * w2) + w1 * (x2 * y3 - x3 * y2)


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
    (x0, x1, y0, y1), den = over_lcd(window)
    if not (x0 < x1 and y0 < y1):
        raise DegeneratePlane("window must have positive extent")
    borders = [(den, 0, -x0), (den, 0, -x1), (0, den, -y0), (0, den, -y1)]
    keys = list(dict.fromkeys(_integer_line(line) for line in borders + list(lines)))

    # every pair once; each line keeps the points inside the closed window
    on_line = [set() for _ in keys]
    for i, (a1, b1, c1) in enumerate(keys):
        for j in range(i + 1, len(keys)):
            a2, b2, c2 = keys[j]
            w = a1 * b2 - a2 * b1
            if w == 0:
                continue
            x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
            if w < 0:
                x, y, w = -x, -y, -w
            if x0 * w <= x * den <= x1 * w and y0 * w <= y * den <= y1 * w:
                g = gcd(x, y, w)
                p = (x // g, y // g, w // g)
                on_line[i].add(p)
                on_line[j].add(p)

    # vertices by lexicographic rank; a line's direction (b, -a) runs up that
    # order when b > 0 (a line with b = 0 has a > 0 and runs down it)
    points = sorted(set().union(*on_line), key=cmp_to_key(_lex_cmp))
    index = {p: k for k, p in enumerate(points)}
    # the 2L directions, forward then back per line, ranked once in CCW order;
    # lines through one vertex differ in direction, so ranks order its edges
    directions = []
    for a, b, _ in keys:
        directions += [(b, -a), (-b, a)] if b > 0 else [(-b, a), (b, -a)]
    ccw = sorted(range(len(directions)),
                 key=cmp_to_key(lambda i, j: _direction_cmp(directions[i], directions[j])))
    angle = [0] * len(directions)
    for k, i in enumerate(ccw):
        angle[i] = k
    outgoing = [[] for _ in points]  # per vertex: (direction rank, target)
    edges = 0
    for line, pts in enumerate(on_line):
        forward, back = angle[2 * line], angle[2 * line + 1]
        ordered = sorted([index[p] for p in pts])
        for u, v in zip(ordered, ordered[1:]):
            outgoing[u].append((forward, v))
            outgoing[v].append((back, u))
            edges += 1
    rank = {}  # (vertex, neighbour) -> position in the CCW order around vertex
    for u, out in enumerate(outgoing):
        out.sort()
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
        low = cycle.index(min(cycle))
        around = (cycle[low - 1], cycle[low], cycle[(low + 1) % len(cycle)])
        if _turn(*[points[k] for k in around]) > 0:
            cells.append(tuple(cycle[low:] + cycle[:low]))
    if len(points) - edges + faces != 2:
        raise FaceCountMismatch(
            f"traced {len(points)} vertices, {edges} edges and {faces} faces"
        )
    cells.sort()
    return [tuple([points[k] for k in cell]) for cell in cells]
