"""Independent expectations for the benchmark's output checks.

Nothing here imports quiverstab.  Root data, subspace counts, submodule
verdicts of zero-arrow modules, framing cyclicity and slice cell counts
are computed from first principles with the standard library, so a
check that passes is evidence about the program, not a copy of it.

Conventions shared with the program (they are part of its documented
interface, see the top-level README): Bourbaki vertex numbering with
the extending vertex 0, dimension keys written (r, v_0, v_1, ...), and
arrow labels ``name:tail-head`` plus the framing pair ``b`` / ``b*``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


class CheckFailed(AssertionError):
    """An output disagreed with its independent expectation."""


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- root data ------------------------------------------------------------------

def finite_edges(family: str, rank: int):
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    chain = [1] + list(range(3, rank + 1))
    return list(zip(chain, chain[1:])) + [(2, 4)]


def positive_roots(family: str, rank: int):
    """Positive roots as coefficient tuples over the simple roots 1..rank.

    Grows roots by adding one simple root at a time and keeps the vectors
    of norm 2 under the Cartan form; every positive root of a simply-laced
    system is reached this way from a simple root.
    """
    adj = {i: set() for i in range(rank)}
    for a, b in finite_edges(family, rank):
        adj[a - 1].add(b - 1)
        adj[b - 1].add(a - 1)

    def norm2(x):
        return 2 * sum(c * c for c in x) - 2 * sum(
            x[i] * x[j] for i in range(rank) for j in adj[i] if i < j
        )

    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                cand = tuple(c + (k == i) for k, c in enumerate(beta))
                if cand not in found and norm2(cand) == 2:
                    found.add(cand)
                    nxt.append(cand)
        layer = nxt
    return sorted(found)


def delta(family: str, rank: int):
    """Primitive isotropic vector over (0, 1, .., rank): 1 then the highest root."""
    highest = max(positive_roots(family, rank), key=lambda r: (sum(r), r))
    return (1,) + highest


def parse_type(label: str):
    return label[0], int(label[1:])


def _primitive_normal(coeffs):
    content = 0
    for c in coeffs:
        content = gcd(content, abs(c))
    coeffs = [c // content for c in coeffs]
    lead = next(c for c in coeffs if c != 0)
    return tuple(-c for c in coeffs) if lead < 0 else tuple(coeffs)


def wall_normals(type_label: str, n: int):
    """The walls delta and m*delta +- alpha (0 <= m < n), primitive and signed."""
    family, rank = parse_type(type_label)
    d = delta(family, rank)
    out = {_primitive_normal(d)}
    for m in range(n):
        for alpha in positive_roots(family, rank):
            for sign in (1, -1):
                vec = [m * x for x in d]
                for i, c in enumerate(alpha):
                    vec[i + 1] += sign * c
                out.add(_primitive_normal(vec))
    return sorted(out)


# -- subspace lattices ------------------------------------------------------------

def gaussian_binomial(d: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(d: int, p: int) -> int:
    return sum(gaussian_binomial(d, k, p) for k in range(d + 1))


def containment_pairs(d: int, p: int) -> int:
    """Pairs U <= W of subspaces of F_p^d, equal pairs included."""
    return sum(
        gaussian_binomial(d, l, p) * subspace_count(l, p) for l in range(d + 1)
    )


def zero_arrow_lattice_size(dims, p: int):
    """(nodes, proper containments) of a representation with all arrows zero.

    Every family of subspaces is then a submodule, so the lattice is the
    product of the subspace lattices of the vertex spaces.
    """
    nodes = pairs = 1
    for d in dims:
        nodes *= subspace_count(d, p)
        pairs *= containment_pairs(d, p)
    return nodes, pairs - nodes


# -- stability of zero-arrow modules ------------------------------------------------

def theta_inf(entries, dims):
    """Framing entry that makes theta orthogonal to the whole module (1, v)."""
    return -sum(Fraction(v) * t for v, t in zip(dims[1:], entries))


def pairing(entries, t_inf, d):
    return d[0] * t_inf + sum(Fraction(x) * t for x, t in zip(d[1:], entries))


def _box(dims):
    return itertools.product(*(range(x + 1) for x in dims))


def zero_arrow_report(entries, dims):
    """(semistable, stable, witness key or None) by brute force over dimension vectors."""
    t_inf = theta_inf(entries, dims)
    whole = sum(dims)
    viol = [d for d in _box(dims) if pairing(entries, t_inf, d) < 0]
    if viol:
        return False, False, min(viol, key=lambda d: (sum(d), d))
    flat = [
        d
        for d in _box(dims)
        if 0 < sum(d) < whole and pairing(entries, t_inf, d) == 0
    ]
    if flat:
        return True, False, min(flat, key=lambda d: (sum(d), d))
    return True, True, None


def slope(entries, t_inf, d) -> Fraction:
    return Fraction(-pairing(entries, t_inf, d)) / sum(d)


def zero_arrow_hn(entries, dims):
    """HN layers (dims, slope, JH factor keys) of a zero-arrow module.

    Each step takes the subquotient dimension vector of largest slope,
    larger total dimension among ties, then the smallest key; every
    stable factor of a zero-arrow module is a simple of total dimension 1.
    """
    t_inf = theta_inf(entries, dims)
    layers = []
    rest = tuple(dims)
    while sum(rest) > 0:
        best = max(
            (d for d in _box(rest) if sum(d) > 0),
            key=lambda d: (slope(entries, t_inf, d), sum(d), tuple(-x for x in d)),
        )
        units = []
        for k, mult in enumerate(best):
            units += [tuple(int(j == k) for j in range(len(best)))] * mult
        layers.append((best, slope(entries, t_inf, best), tuple(sorted(units))))
        rest = tuple(a - b for a, b in zip(rest, best))
    return layers


# -- framing cyclicity over F_p --------------------------------------------------------

def arrow_ends(label: str):
    """(tail, head) of an arrow label; the framing vertex is 'inf'."""
    if label == "b":
        return "inf", 0
    if label == "b*":
        return 0, "inf"
    tail, head = label.split(":", 1)[1].split("-")
    return int(tail), int(head)


def _insert(rows, vec, p):
    """Add vec to a row-echelon list mod p; True when the span grew."""
    vec = [x % p for x in vec]
    for row in rows:
        piv = next(j for j, x in enumerate(row) if x)
        if vec[piv]:
            c = vec[piv] * pow(row[piv], -1, p)
            vec = [(a - c * b) % p for a, b in zip(vec, row)]
    if any(vec):
        rows.append(vec)
        return True
    return False


def is_framing_cyclic(doc) -> bool:
    """Whether the framing line generates the module, by spinning it mod p."""
    p = int(doc["p"])
    dims = {k if k == "inf" else int(k): int(v) for k, v in doc["dims"].items()}
    mats = {}
    for label, mat in doc.get("matrices", {}).items():
        mats[label] = [[Fraction(x) for x in row] for row in mat]

    def reduce(x):
        return x.numerator * pow(x.denominator, -1, p) % p

    spans = {v: [] for v in dims}
    work = [("inf", [1])]
    while work:
        vertex, vec = work.pop()
        if not _insert(spans[vertex], vec, p):
            continue
        for label, mat in mats.items():
            tail, head = arrow_ends(label)
            if tail != vertex or dims[head] == 0:
                continue
            image = [sum(reduce(a) * b for a, b in zip(row, vec)) % p for row in mat]
            work.append((head, image))
    return all(len(spans[v]) == dims[v] for v in dims)


# -- slice cell counts -------------------------------------------------------------------

def slice_cell_count(normals, base, d1, d2, window) -> int:
    """Regions of the window cut by the walls: F = 1 + L + sum_v (m_v - 1).

    L counts the distinct lines crossing the open window and v runs over
    the intersection points strictly inside it, m_v lines through each
    (Zaslavsky's count for lines clipped to a convex region).
    """
    smin, smax, tmin, tmax = (Fraction(x) for x in window)
    corners = [(smin, tmin), (smax, tmin), (smax, tmax), (smin, tmax)]
    lines = set()
    for h in normals:
        a = sum(Fraction(c) * x for c, x in zip(h, d1))
        b = sum(Fraction(c) * x for c, x in zip(h, d2))
        c0 = sum(Fraction(c) * x for c, x in zip(h, base))
        if a == 0 and b == 0:
            expect(c0 != 0, f"wall {h} contains the slice plane")
            continue
        lead = a if a != 0 else b
        line = (a / lead, b / lead, c0 / lead)
        values = [line[0] * s + line[1] * t + line[2] for s, t in corners]
        if min(values) < 0 < max(values):
            lines.add(line)
    lines = sorted(lines)
    through = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        a1, b1, c1 = lines[i]
        a2, b2, c2 = lines[j]
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        s = (b1 * c2 - b2 * c1) / det
        t = (a2 * c1 - a1 * c2) / det
        if smin < s < smax and tmin < t < tmax:
            through.setdefault((s, t), set()).update((i, j))
    return 1 + len(lines) + sum(len(ls) - 1 for ls in through.values())


# -- parsing CLI output -----------------------------------------------------------------------

def parse_report(text: str):
    """(semistable, stable, witness key or None) from ``stab report`` output."""
    fields = dict(line.split(" ", 1) for line in text.splitlines() if " " in line)
    flags = {}
    for key in ("semistable", "stable"):
        expect(fields.get(key) in ("true", "false"), f"report lacks {key}: {text!r}")
        flags[key] = fields[key] == "true"
    witness = fields.get("witness")
    expect(witness is not None, f"report lacks a witness line: {text!r}")
    key = None if witness == "-" else tuple(int(x) for x in witness.split())
    expect(fields.get("caveat", "").startswith("verdict certifies"), "report lacks its caveat")
    return flags["semistable"], flags["stable"], key


def parse_hn(text: str):
    """[(dims, slope, jh keys)] from ``stab hn`` output."""
    layers = []
    for k, line in enumerate(text.splitlines()):
        head, _, rest = line.partition(" dims ")
        expect(head == f"layer {k}", f"bad HN line {line!r}")
        dims_text, _, rest = rest.partition(" slope ")
        slope_text, _, jh_text = rest.partition(" jh ")
        dims = tuple(int(x) for x in dims_text.split())
        jh = tuple(
            tuple(int(x) for x in part.split(",")) for part in jh_text.split(";") if part
        )
        layers.append((dims, Fraction(slope_text), jh))
    expect(bool(layers), "HN filtration printed no layers")
    return layers


def check_report_consistent(report, entries, dims):
    """Invariants any report must satisfy, for modules of any shape."""
    semistable, stable, witness = report
    expect(semistable or not stable, "stable but not semistable")
    expect((witness is None) == stable, "witness present iff not stable")
    if witness is not None:
        expect(len(witness) == len(dims), "witness has the wrong length")
        expect(all(0 <= w <= d for w, d in zip(witness, dims)), "witness exceeds the module")
        value = pairing(entries, theta_inf(entries, dims), witness)
        if semistable:
            expect(value == 0 and 0 < sum(witness) < sum(dims), "semistable witness is not a proper flat submodule")
        else:
            expect(value < 0, "unstable witness does not pair negatively")


def check_hn_consistent(layers, entries, dims):
    """Slopes strictly decrease, layers add up, JH factors match each layer."""
    t_inf = theta_inf(entries, dims)
    total = [0] * len(dims)
    previous = None
    for layer_dims, layer_slope, jh in layers:
        expect(sum(layer_dims) > 0, "empty HN layer")
        expect(layer_slope == slope(entries, t_inf, layer_dims), "printed slope disagrees with the layer dims")
        expect(previous is None or layer_slope < previous, "HN slopes do not strictly decrease")
        previous = layer_slope
        expect(bool(jh), "HN layer without JH factors")
        jh_total = [sum(col) for col in zip(*jh)]
        expect(tuple(jh_total) == tuple(layer_dims), "JH factors do not add up to the layer")
        for factor in jh:
            expect(slope(entries, t_inf, factor) == layer_slope, "JH factor has another slope")
        total = [a + b for a, b in zip(total, layer_dims)]
    expect(tuple(total) == tuple(dims), "HN layers do not add up to the module")
