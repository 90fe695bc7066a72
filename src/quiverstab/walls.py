"""Wall hyperplanes, sign vectors, exact feasibility, and slice figures.

The arrangement collects the isotropic wall and every wall of the form
(m * delta +- alpha) for 0 <= m < n over the finite positive roots, as
primitive sign-normalized integer normals.  Feasibility of inequality
systems is decided by Fourier-Motzkin elimination over the rationals with
strictness tracking, which doubles as a witness generator for chamber and
cone membership.  Rows are integral after elimination, and the witness is
rebuilt as int numerators over one positive denominator.

A slice pairs every wall with its plane once, as an integer line
a*s + b*t + c, and builds each cell's stability vector from the integer
centroid (s/m, t/m): its numerators are base*m + d1*s + d2*t over the
plane's den times m, and a wall's sign there is that of a*s + b*t + c*m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import geom2d
from .errors import (
    ArrangementTooLarge,
    ContextMismatch,
    DegeneratePlane,
    SamplerExhausted,
    SliceTooLarge,
)
from .fieldops import QQ, dot, identity, mat_coerce, nullspace, over_lcd, primitive, signs
from .rootsys import RootSystem, m_delta_plus_root
from .stability import StabilityVector, cone_membership, holds, make_theta, theta_from_nums


@dataclass(frozen=True)
class Arrangement:
    """The walls for one n, each its primitive sign-normalized int normal, sorted."""

    rs: RootSystem
    n: int
    hyperplanes: tuple

    def __len__(self):
        return len(self.hyperplanes)


# Most work an arrangement may take, in entries: one per vertex of each wall
# and 24 more per wall for building, sorting and printing it.  An entry takes
# about 0.25 us on a 2-core host, so a build stays near 0.5 s or less: A2 up
# to 74,074 walls (n = 12,346), E8 up to 60,606 and A119 up to 13,888 (n = 1
# has 7,141 walls, n = 2 has 21,421).
MAX_BUILD_ENTRIES = 2_000_000
_ENTRIES_PER_WALL = 24


def build_arrangement(rs: RootSystem, n: int) -> Arrangement:
    """The walls delta and m*delta +- alpha for 0 <= m < n, sorted.

    These are 1 + (2n - 1) |positive roots| distinct walls, each already
    primitive and sign-normalized: -alpha is alpha's wall, and for m >= 1
    the entry at vertex 0 is m > 0, while a common divisor of m and the
    other entries would divide the primitive root alpha.  More walls than
    MAX_BUILD_ENTRIES allows raise ArrangementTooLarge before any is built.
    """
    if n < 1:
        raise ContextMismatch("n must be at least 1")
    count = 1 + (2 * n - 1) * len(rs.positive_roots)
    most = MAX_BUILD_ENTRIES // (len(rs.vertices) + _ENTRIES_PER_WALL)
    if count > most:
        raise ArrangementTooLarge(
            f"{rs.dynkin.label()} n={n} has {count} walls,"
            f" more than the {most} built for this type"
        )
    roots = [(0, *alpha) for alpha in rs.positive_roots]
    normals = [rs.delta, *roots]
    for m in range(1, n):
        shift = [m * d for d in rs.delta]
        for root in roots:
            normals.append(tuple([x + y for x, y in zip(shift, root)]))
            normals.append(tuple([x - y for x, y in zip(shift, root)]))
    normals.sort()
    return Arrangement(rs=rs, n=n, hyperplanes=tuple(normals))


def sign_vector(arr: Arrangement, theta: StabilityVector):
    """Signs of the pairings with every wall, in arrangement order."""
    expected = tuple(arr.n * d for d in arr.rs.delta)
    if theta.context != expected:
        raise ContextMismatch("stability context does not match the arrangement")
    # den > 0, so the numerators give the signs; "0+-"[s] reads 0, 1, -1 as 0, +, -
    return tuple("0+-"[s] for s in signs(arr.hyperplanes, theta.nums))


# -- exact Fourier-Motzkin ----------------------------------------------------

def _normalize(coeffs, rel, rhs):
    *ints, rint = primitive((*coeffs, rhs))
    return (tuple(ints), rel, rint)


def _combine(row, pivot, var):
    """Cancel ``var`` from ``row`` by ``pivot``, keeping ``row``'s weight positive.

    Against an equality the row keeps its relation; otherwise the result is
    strict when either row is.
    """
    c, rel, b = row
    cp, relp, bp = pivot
    sign = 1 if cp[var] > 0 else -1
    lam, mu = sign * cp[var], sign * c[var]
    coeffs = tuple(lam * x - mu * y for x, y in zip(c, cp))
    if relp != "=":
        rel = ">" if ">" in (rel, relp) else ">="
    return _normalize(coeffs, rel, lam * b - mu * bp)


def _feasible_point(constraints, nvars):
    """A rational point satisfying all (coeffs, rel, rhs) rows, or None.

    Equalities are removed by substitution first, then the inequalities by
    Fourier-Motzkin; the witness is rebuilt by back-substitution and checked
    against every original row.  After elimination every row is integral,
    and the witness is held as int numerators over one positive
    denominator: each bound (b * den - c.nums) / (c[var] * den) is compared
    with the others by cross-multiplying, the value chosen is reduced, and
    the numerators are rescaled to the lcm of the denominators.  Returns
    (nums, den): the point nums[i] / den, den the least common denominator.
    """
    original = [_normalize(c, r, b) for c, r, b in constraints]
    rows = list(original)

    substitutions = []  # (var, coeffs, rhs) of each equality pivot
    while True:
        eq = next(
            (row for row in rows if row[1] == "=" and any(row[0])), None
        )
        if eq is None:
            break
        rows.remove(eq)
        coeffs, _, rhs = eq
        var = next(i for i, c in enumerate(coeffs) if c != 0)
        substitutions.append((var, coeffs, rhs))
        rows = [row if row[0][var] == 0 else _combine(row, eq, var) for row in rows]

    # a row without variables (every equality left is one) reads 0 rel rhs:
    # it holds and is dropped, or the system is infeasible
    pending = []
    for c, rel, b in rows:
        if any(c):
            pending.append((c, rel, b))
        elif not holds(0, rel, b):
            return None
    rows = sorted(set(pending))

    stages = []
    while True:
        active = sorted({i for c, _, _ in rows for i, x in enumerate(c) if x != 0})
        if not active:
            break
        # Chernikov rule: eliminate the variable with the fewest pairings
        def cost(v):
            pos = sum(1 for c, _, _ in rows if c[v] > 0)
            neg = sum(1 for c, _, _ in rows if c[v] < 0)
            return (pos * neg, v)

        var = min(active, key=cost)
        stages.append((var, rows))
        lowers = [row for row in rows if row[0][var] > 0]
        uppers = [row for row in rows if row[0][var] < 0]
        others = [row for row in rows if row[0][var] == 0]
        fresh = set(others)
        for lo in lowers:
            for up in uppers:
                row = _combine(lo, up, var)
                if any(row[0]):
                    fresh.add(row)
                elif not holds(0, row[1], row[2]):
                    return None
        rows = sorted(fresh)

    # the witness is nums / den with den > 0; each variable is set once, so
    # nums[var] is still 0 while its own row is evaluated and dot() gives
    # the pairing with the other variables
    nums, den = [0] * nvars, 1

    def assign(var, p, q):
        """Set variable var to p / q (q > 0), rescaling nums to a common den."""
        nonlocal den
        g = gcd(p, q)
        p, q = p // g, q // g
        common = lcm(den, q)
        if common != den:
            scale = common // den
            nums[:] = [x * scale for x in nums]
            den = common
        nums[var] = p * (common // q)

    for var, system in reversed(stages):
        best_lo = None  # (numerator, denominator > 0, strict)
        best_hi = None
        for c, rel, b in system:
            if c[var] == 0:
                continue
            # the bound (b - c.values) / c[var], as p / q with q > 0
            p, q = b * den - dot(c, nums), c[var] * den
            strict = rel == ">"
            if q > 0:
                if best_lo is None or p * best_lo[1] > best_lo[0] * q or (
                    strict and p * best_lo[1] == best_lo[0] * q
                ):
                    best_lo = (p, q, strict)
            else:
                p, q = -p, -q
                if best_hi is None or p * best_hi[1] < best_hi[0] * q or (
                    strict and p * best_hi[1] == best_hi[0] * q
                ):
                    best_hi = (p, q, strict)
        if best_hi is None:  # var is active in the stage, so some row bounds it
            p, q, _ = best_lo
            assign(var, p + q, q)
        elif best_lo is None:
            p, q, _ = best_hi
            assign(var, p - q, q)
        else:
            (lp, lq, lstrict), (hp, hq, hstrict) = best_lo, best_hi
            lo, hi = lp * hq, hp * lq  # both over lq * hq
            if lo < hi:
                assign(var, lo + hi, 2 * lq * hq)
            else:
                if lo > hi or lstrict or hstrict:
                    raise AssertionError("elimination certified an infeasible stage")
                assign(var, lp, lq)

    for var, coeffs, rhs in reversed(substitutions):
        p, q = rhs * den - dot(coeffs, nums), coeffs[var] * den
        if q < 0:
            p, q = -p, -q
        assign(var, p, q)

    if not all(holds(dot(c, nums), rel, b * den) for c, rel, b in original):
        raise AssertionError("witness fails a constraint it was built from")
    return nums, den


def _as_triples(constraints):
    """(coeffs, rel) and (coeffs, rel, rhs) rows as (coeffs, rel, rhs)."""
    return [(tuple(row[0]), row[1], row[2] if len(row) == 3 else 0) for row in constraints]


def interior_point(rs: RootSystem, n: int, constraints):
    """Exact rational witness of a linear system over the vertex entries.

    Constraints are (coeffs, rel) or (coeffs, rel, rhs) with rel one of
    ">", ">=", "=".  Returns a stability vector with context n * delta, or
    None when the system is infeasible.
    """
    found = _feasible_point(_as_triples(constraints), len(rs.vertices))
    if found is None:
        return None
    return theta_from_nums(rs, tuple(n * d for d in rs.delta), *found)


def _fractions(found):
    """The point of a :func:`_feasible_point` result as Fractions, or None."""
    if found is None:
        return None
    nums, den = found
    return [Fraction(x, den) for x in nums]


def _equality_directions(rs, constraints):
    eqs = [tuple(c) for c, rel, _ in _as_triples(constraints) if rel == "="]
    if not eqs:
        return identity(QQ, len(rs.vertices))
    return nullspace(QQ, mat_coerce(QQ, eqs), len(rs.vertices))


def generic_relint_point(rs: RootSystem, n: int, constraints, avoid):
    """A witness whose pairing vanishes only where the system forces it.

    ``avoid`` is a list of coefficient vectors; the returned point pairs to
    zero exactly with those that vanish on the whole solution set, returned
    as ``forced``.  Returns (theta, forced) or (None, ()) when infeasible.

    From the Fourier-Motzkin witness p, each avoided form c vanishing at p
    is decided by elimination on the system plus c > 0, then plus -c > 0:
    c is forced when neither is feasible.  Otherwise that witness w gives
    the solution p + (w - p) / k (the solution set is convex), where c is
    nonzero, with k >= 1 least such that no form nonzero at p vanishes.
    """
    triples = _as_triples(constraints)
    nvars = len(rs.vertices)
    point = _fractions(_feasible_point(triples, nvars))
    if point is None:
        return None, ()
    avoid = [tuple(c) for c in avoid]
    forced = []
    for c in avoid:
        if dot(c, point) != 0:
            continue
        target = _fractions(_feasible_point(triples + [(c, ">", 0)], nvars))
        if target is None:
            target = _fractions(
                _feasible_point(triples + [(tuple(-x for x in c), ">", 0)], nvars)
            )
        if target is None:
            forced.append(c)
            continue
        # f(p + mu (w - p)) = f(p) - mu (f(p) - f(w)) vanishes at one mu at most
        roots = set()
        for f in avoid:
            at_point = dot(f, point)
            gap = at_point - dot(f, target)
            if at_point != 0 and gap != 0:
                roots.add(at_point / gap)
        k = next(k for k in range(1, len(roots) + 2) if Fraction(1, k) not in roots)
        point = [x + (y - x) / k for x, y in zip(point, target)]
    return make_theta(rs, tuple(n * d for d in rs.delta), point), tuple(forced)


def sample_interior_points(rs: RootSystem, n: int, constraints, count: int, seed: int):
    """Deterministic list of distinct exact points of a feasible system.

    Perturbs a Fourier-Motzkin witness inside the solution set and keeps
    candidates that re-verify against every constraint exactly.
    """
    triples = _as_triples(constraints)
    base = interior_point(rs, n, triples)
    if base is None:
        return []
    dirs = _equality_directions(rs, triples)
    context = tuple(n * d for d in rs.delta)
    rng = random.Random(seed)
    out = [base]
    seen = {base.entries}
    scale = Fraction(1)
    failures = 0
    while len(out) < count:
        drift = [Fraction(0)] * len(rs.vertices)
        for d in dirs:
            w = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * scale
            drift = [x + w * y for x, y in zip(drift, d)]
        cand = make_theta(
            rs, context, [e + g for e, g in zip(base.entries, drift)]
        )
        if cand.entries not in seen and all(
            holds(cand.value(c), rel, b) for c, rel, b in triples
        ):
            out.append(cand)
            seen.add(cand.entries)
            failures = 0
        else:
            failures += 1
            if failures > 20:
                scale /= 2
                failures = 0
        if scale < Fraction(1, 2 ** 40):
            raise SamplerExhausted(
                f"found {len(out)} of {count} distinct interior points"
            )
    return out


# -- transversal slices -------------------------------------------------------

@dataclass(frozen=True)
class SlicePlane:
    """An affine 2-plane base + s*d1 + t*d2 with an (s, t) view window.

    ``den`` is the least common denominator of the entries of base, d1 and
    d2 (always positive) and ``nums`` the integer numerators of the three
    vectors over it, in that order.  Both are computed once, when the plane
    is made, so every pairing with the plane is int arithmetic.
    """

    base: tuple
    d1: tuple
    d2: tuple
    window: tuple  # (smin, smax, tmin, tmax)
    nums: tuple = dc_field(init=False, repr=False, compare=False)
    den: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nums, den = over_lcd((*self.base, *self.d1, *self.d2))
        a, b = len(self.base), len(self.base) + len(self.d1)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", (nums[:a], nums[a:b], nums[b:]))


def figure_plane(rs: RootSystem) -> SlicePlane:
    """The standard simplex slice through the fundamental cone.

    At (s, t) the entry at vertex 1 is s, the entry at the last vertex is
    t, and theta(delta) = 1 - s - t, so the isotropic wall is the line
    s + t = 1.  From four vertices on, every other non-extending vertex
    keeps the entry 1/h on the whole plane: a wall supported on those
    vertices then misses the plane instead of containing it.  The plane
    meets the fundamental cone in the simplex s, t >= 0, s + t <= 1.
    """
    n_vertices = len(rs.vertices)
    margin = Fraction(1, 5)
    if n_vertices == 2:
        return SlicePlane(
            base=(Fraction(0), Fraction(0)),
            d1=(Fraction(1), Fraction(0)),
            d2=(Fraction(0), Fraction(1)),
            window=(-1 - margin, 1 + margin, -1 - margin, 1 + margin),
        )
    last = n_vertices - 1
    base = [Fraction(0)] + [Fraction(1, rs.h)] * (n_vertices - 1)
    base[1] = base[last] = Fraction(0)
    base[0] = 1 - sum(d * x for d, x in zip(rs.delta, base))
    d1 = [Fraction(0)] * n_vertices
    d2 = [Fraction(0)] * n_vertices
    d1[0], d1[1] = Fraction(-1 - rs.delta[1]), Fraction(1)
    d2[0], d2[last] = Fraction(-1 - rs.delta[last]), Fraction(1)
    return SlicePlane(
        base=tuple(base),
        d1=tuple(d1),
        d2=tuple(d2),
        window=(-margin, 1 + margin, -margin, 1 + margin),
    )


@dataclass(frozen=True)
class SliceCell:
    """An open cell: a CCW cycle of int triples (x, y, w) for (x/w, y/w), w > 0 and gcd 1."""

    cell_id: int
    vertices: tuple
    theta: StabilityVector
    signs: tuple
    label: str


@dataclass(frozen=True)
class SliceResult:
    arrangement: Arrangement
    plane: SlicePlane
    cells: tuple
    svg: str
    table: str


# Most walls a slice may draw.  Its time grows about as the cube of the line
# count on a 2-core host: A2 n=8 has 45 lines (0.23 s), A2 n=16 93 (1.7 s),
# A2 n=32 189 (12 s).
MAX_SLICE_LINES = 100

_PALETTE = ("#f4a259", "#8cb369", "#5b8e7d", "#bc4b51", "#f4e285", "#a26769")


def _pairings(plane: SlicePlane, coeffs):
    """Ints (a, b, c): a wall pairs with base + s*d1 + t*d2 as (a*s + b*t + c) / den."""
    base, d1, d2 = plane.nums
    return (dot(coeffs, d1), dot(coeffs, d2), dot(coeffs, base))


def _roots(f0, step, span: range) -> range:
    """The m in ``span`` where f0 + m * step vanishes: all of them, or at most one."""
    if step == 0:
        return span if f0 == 0 else range(0)
    m, rest = divmod(-f0, step)
    if rest == 0 and span.start <= m < span.stop:
        return range(m, m + 1)
    return range(0)


def _check_slice(rs: RootSystem, n: int, plane: SlicePlane):
    """Refuse a slice before building its arrangement, in O(|positive roots|).

    The arrangement is delta and the families m*delta + alpha (0 <= m < n)
    and m*delta - alpha (1 <= m < n) over the positive roots, all distinct
    and primitive.  Along a family the pairings with d1, d2 and the base
    (int numerators over the plane's ``den``) are affine in m, so the
    family misses or contains the plane for every m, for at most one m, or
    for none.  A wall that contains the plane raises DegeneratePlane,
    naming the first such wall in arrangement order; otherwise more than
    MAX_SLICE_LINES walls that meet the plane raise SliceTooLarge.
    """
    if n < 1:
        raise ContextMismatch("n must be at least 1")
    step = _pairings(plane, rs.delta)
    off_plane = int(step[:2] == (0, 0))  # walls that miss or contain the plane
    containing = [rs.delta] if step == (0, 0, 0) else []
    for alpha in rs.positive_roots:
        root = _pairings(plane, (0, *alpha))  # alpha over the affine vertices
        for sign, span in ((1, range(0, n)), (-1, range(1, n))):
            for f0, s in zip(root[:2], step[:2]):
                span = _roots(sign * f0, s, span)
            off_plane += len(span)
            inside = _roots(sign * root[2], step[2], span)
            if inside:
                containing.append(m_delta_plus_root(rs, inside[0], alpha, sign))
    if containing:
        raise DegeneratePlane(f"wall {min(containing)} contains the whole slice plane")
    count = 1 + (2 * n - 1) * len(rs.positive_roots) - off_plane
    if count > MAX_SLICE_LINES:
        raise SliceTooLarge(
            f"{count} walls meet the slice plane, more than {MAX_SLICE_LINES}"
        )


@lru_cache(maxsize=128)  # r is at most 119
def _name_tokens(r: int):
    """The tokens "k," and "k]" of the chamber names C[..] over 1..r, in string order.

    A name C[k1,..,km] reads "C[" and then the tokens "k1,", .., "km]"
    ("]" alone for the empty K).  No token is a prefix of another, so names
    compare as their token sequences do, token by token.  Returns (k, last)
    pairs, last telling "k]" from "k,"; "r," is left out, as no name
    continues past r.
    """
    tokens = [(f"{k}]", k, True) for k in range(1, r + 1)]
    tokens += [(f"{k},", k, False) for k in range(1, r)]
    return tuple((k, last) for _, k, last in sorted(tokens))


def chamber_label(theta: StabilityVector, n: int):
    """The first name C[K] in string order of a chamber C_K holding theta.

    Returns (name, position), the position counted among all 2^r names
    C[K] (K a subset of the vertices 1..r) in string order, or None when
    theta lies in no chamber.  At theta, vertex i may lie in K iff
    theta_i > 0 and in J iff theta_i > (n - 1) theta(delta), and C_K needs
    theta(delta_J) > 0 as well.  A vertex that may lie in both has
    theta_i > 0, so moving it from K to J only raises theta(delta_J).  The
    walk runs over the name tokens depth first and checks each subtree by
    its best completion: the vertices above it that must lie in K, or, when
    the subtree needs one more vertex and none must, the free vertex that
    lowers theta(delta_J) least.  A skipped subtree adds its size to the
    position.  That is O(r^2) int comparisons, where the exhaustive list of
    2^r names was exponential.
    """
    nums = theta.nums
    r = len(nums) - 1
    bar = (n - 1) * dot(theta.rs.delta, nums)
    in_k = [x > 0 for x in nums]
    in_j = [x > bar for x in nums]
    if not all(in_k[i] or in_j[i] for i in range(1, r + 1)):
        return None
    w = [d * x for d, x in zip(theta.rs.delta, nums)]  # what vertex i in J adds to theta(delta_J)
    # over the vertices above k: the sum of w, the sum of w over those that
    # must lie in K (w > 0 there, so it is 0 only when none must) and the
    # least w of those that may lie in either; first_not_j[k] is the first
    # vertex from k on that may not lie in J
    above = [0] * (r + 1)
    forced = [0] * (r + 1)
    least_free = [None] * (r + 1)
    first_not_j = [r + 1] * (r + 2)
    for k in range(r, 0, -1):
        above[k - 1] = above[k] + w[k]
        forced[k - 1] = forced[k] + (0 if in_j[k] else w[k])
        free = least_free[k]
        if in_k[k] and in_j[k] and (free is None or w[k] < free):
            free = w[k]
        least_free[k - 1] = free
        first_not_j[k] = first_not_j[k + 1] if in_j[k] else k

    tokens = _name_tokens(r)
    chosen = []
    last, outside, position = 0, w[0], 0  # outside: theta(delta_J) over J up to last
    while True:
        for k, is_last in tokens:
            if k <= last:
                continue
            ok = in_k[k] and first_not_j[last + 1] >= k
            if ok:
                gap = outside + above[last] - above[k - 1]  # J up to k, k in K
                if is_last:
                    ok = not forced[k] and gap + above[k] > 0
                elif forced[k]:
                    ok = gap + above[k] - forced[k] > 0
                else:
                    ok = least_free[k] is not None and gap + above[k] > least_free[k]
            if not ok:
                position += 1 if is_last else (1 << (r - k)) - 1
                continue
            chosen.append(k)
            if is_last:
                return "C[" + ",".join(map(str, chosen)) + "]", position
            last, outside = k, gap
            break
        else:
            # only the root gets here: the last name, C[], with every vertex in J
            if first_not_j[1] > r and w[0] + above[0] > 0:
                return "C[]", position
            return None


def render_slice(rs: RootSystem, n: int, plane: SlicePlane, labels=None) -> SliceResult:
    """Intersect the walls with the plane, fill labeled cells, emit SVG + TSV.

    ``labels`` is a sequence of (name, ConeSpec) pairs; each open cell gets
    the first label whose membership test passes at the cell's exact
    centroid, and the i-th label's colour.  Without ``labels`` a cell gets
    its :func:`chamber_label` and the colour of its position in the name
    order.  The SVG canvas is fixed at 600 x 600 with three-decimal
    coordinates, so identical inputs give identical bytes.
    """
    _check_slice(rs, n, plane)
    arr = build_arrangement(rs, n)
    # every wall as its line (a, b, c) over the plane, in arrangement order;
    # a wall that misses the plane has a = b = 0 and the constant sign of c
    wall_lines = [_pairings(plane, h) for h in arr.hyperplanes]
    lines = [line for line in wall_lines if line[:2] != (0, 0)]

    cycles = geom2d.arrangement_cells(lines, plane.window)
    context = tuple(n * d for d in rs.delta)
    base, d1, d2 = plane.nums
    if labels is not None:
        color_of = {name: _PALETTE[i % len(_PALETTE)] for i, (name, _) in enumerate(labels)}
    cells, fills, centroids = [], [], []
    for idx, cycle in enumerate(cycles):
        point = s, t, m = _centroid(cycle)
        # theta at (s/m, t/m) is (base*m + d1*s + d2*t) / (den*m), and each
        # wall pairs with it as (a*s + b*t + c*m) / (den*m), den*m > 0
        theta = theta_from_nums(
            rs, context, [z * m + x * s + y * t for z, x, y in zip(base, d1, d2)], plane.den * m
        )
        cell_signs = tuple([
            "0+-"[(v > 0) - (v < 0)] for v in [a * s + b * t + c * m for a, b, c in wall_lines]
        ])
        if labels is None:
            found = chamber_label(theta, n)
            label = found[0] if found else "-"
            fills.append(_PALETTE[found[1] % len(_PALETTE)] if found else "none")
        else:
            label = next((name for name, cone in labels if cone_membership(theta, cone)), "-")
            fills.append(color_of.get(label, "none"))
        centroids.append(point)
        cells.append(
            SliceCell(
                cell_id=idx,
                vertices=cycle,
                theta=theta,
                signs=cell_signs,
                label=label,
            )
        )

    table_lines = ["cell\tsigns\tlabel"]
    for cell in cells:
        table_lines.append(
            f"{cell.cell_id}\t{''.join(cell.signs)}\t{cell.label}"
        )
    table = "\n".join(table_lines) + "\n"

    svg = _slice_svg(plane, cells, fills, centroids)
    return SliceResult(
        arrangement=arr, plane=plane, cells=tuple(cells), svg=svg, table=table
    )


def _centroid(cycle):
    """The vertex average of a cycle of triples (x, y, w) as ints (s, t, m): (s/m, t/m)."""
    m = lcm(*[w for _, _, w in cycle])
    s = sum([x * (m // w) for x, _, w in cycle])
    t = sum([y * (m // w) for _, y, w in cycle])
    return s, t, m * len(cycle)


def _slice_svg(plane: SlicePlane, cells, fills, centroids) -> str:
    (s0, s1, t0, t1), wden = over_lcd(plane.window)
    size = 600

    def px(s, sd, t, td):
        """Canvas position of (s/sd, t/td): one int true division per axis,
        correctly rounded like float(Fraction)."""
        return (
            (s * wden - s0 * sd) / (sd * (s1 - s0)) * size,
            size - (t * wden - t0 * td) / (td * (t1 - t0)) * size,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for cell, fill in zip(cells, fills):
        points = " ".join("{:.3f},{:.3f}".format(*px(x, w, y, w)) for x, y, w in cell.vertices)
        parts.append(
            f'<polygon points="{points}" fill="{fill}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
    for cell, (s, t, m) in zip(cells, centroids):
        if cell.label == "-":
            continue
        x, y = px(s, m, t, m)
        # escaped here: xml.sax.saxutils would import urllib.request (http,
        # email, ssl) into every start of the CLI
        text = cell.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-family="monospace" '
            f'font-size="14" text-anchor="middle">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
