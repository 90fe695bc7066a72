"""The three benchmark workloads as fixed lists of checked operations.

A workload is built once per run from the seed: its input documents are
written to a working directory, then the workload function returns one
pass, a list of :class:`Op`.  Every pass runs the same operations in the
same order.
An operation is either ``quiverstab.cli.main(argv)`` with its standard
output captured in memory, or one public library call; each carries a
check that compares the output with an expectation computed
independently in :mod:`checks`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import expect


class OpFailed(Exception):
    """The program refused or crashed on an operation."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Context:
    """What a workload function needs: the program, a seed and a working directory."""

    def __init__(self, qs, cli, seed: int, workdir: Path):
        self.qs = qs
        self.cli = cli
        self.rng = random.Random(seed)
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli_op(self, name, argv, check) -> Op:
        cli = self.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            if code != 0:
                raise OpFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
            return out.getvalue()

        return Op(name, run, check)

    def cli_untimed(self, argv) -> str:
        """Run one CLI command while building inputs; it must succeed."""
        return self.cli_op("setup", argv, lambda out: None).run()

    def write_doc(self, name: str, doc) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        return path

    def theta_doc(self, type_label, n, J) -> str:
        name = f"theta-{type_label}-n{n}-J{''.join(map(str, sorted(J)))}.json"
        path = self.path(name)
        if not Path(path).exists():
            self.cli_untimed(
                ["theta", "craw-wye", "--type", type_label, "-n", str(n),
                 "--J", ",".join(map(str, sorted(J))), "--out", path]
            )
        return path


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dims_key(doc):
    """(r, v_0, v_1, ...) of a representation document."""
    vertices = sorted(int(k) for k in doc["dims"] if k != "inf")
    return (int(doc["dims"]["inf"]),) + tuple(int(doc["dims"][str(i)]) for i in vertices)


def _theta_entries(path):
    doc = _load(path)
    return tuple(Fraction(doc["entries"][str(i)]) for i in range(len(doc["entries"])))


def _chambers(type_label):
    """Every J containing vertex 0, as sorted tuples."""
    family, rank = checks.parse_type(type_label)
    rest = range(1, rank + 1)
    return [
        (0,) + K for k in range(rank + 1) for K in itertools.combinations(rest, k)
    ]


def _expected_dims(type_label, n, r=1):
    family, rank = checks.parse_type(type_label)
    return (r,) + tuple(n * d for d in checks.delta(family, rank))


# -- document surgery over F_p, done by the benchmark itself -------------------------

def _mat(doc, label, rows, cols):
    mat = doc.get("matrices", {}).get(label)
    if mat is None:
        return [[0] * cols for _ in range(rows)]
    return [[Fraction(x) for x in row] for row in mat]


def _arrow_labels(doc):
    return sorted(doc["matrices"])


def _ends(label):
    tail, head = checks.arrow_ends(label)
    return str(tail), str(head)


def direct_sum_docs(a, b):
    """Block-diagonal sum of two documents over the same field."""
    dims = {k: a["dims"][k] + b["dims"][k] for k in a["dims"]}
    out = dict(a, dims=dims, matrices={})
    for label in _arrow_labels(a):
        tail, head = _ends(label)
        ma = _mat(a, label, a["dims"][head], a["dims"][tail])
        mb = _mat(b, label, b["dims"][head], b["dims"][tail])
        rows = [r + [0] * b["dims"][tail] for r in ma]
        rows += [[0] * a["dims"][tail] + r for r in mb]
        out["matrices"][label] = [[str(x) for x in r] for r in rows]
    return out


def zero_doc(type_label, n, p, framed=True):
    """The representation (r, n*delta) over F_p with every arrow zero."""
    dims = _expected_dims(type_label, n, r=int(framed))
    return {
        "type": type_label, "n": n, "field": "Fp", "p": p,
        "dims": {"inf": dims[0], **{str(i): d for i, d in enumerate(dims[1:])}},
        "matrices": {},
    }


def unframed(doc):
    dims = dict(doc["dims"], inf=0)
    mats = {k: v for k, v in doc["matrices"].items() if k not in ("b", "b*")}
    mats["b"] = [[] for _ in range(dims["0"])]
    mats["b*"] = []
    return dict(doc, dims=dims, matrices=mats)


def _invert_mod(g, p):
    n = len(g)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _mul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def gauge_conjugate_doc(doc, rng):
    """Random change of basis at the affine vertices of an F_p document."""
    p = int(doc["p"])
    g, ginv = {"inf": [[1]]}, {"inf": [[1]]}
    for k, d in doc["dims"].items():
        if k == "inf":
            continue
        while True:
            cand = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            inv = _invert_mod(cand, p)
            if inv is not None:
                g[k], ginv[k] = cand, inv
                break
    mats = {}
    for label in _arrow_labels(doc):
        tail, head = _ends(label)
        h, t = doc["dims"][head], doc["dims"][tail]
        x = [[_mod(v, p) for v in row] for row in _mat(doc, label, h, t)]
        if h == 0 or t == 0:
            mats[label] = [[] for _ in range(h)]
            continue
        y = _mul_mod(_mul_mod(g[head], x, p), ginv[tail], p)
        mats[label] = [[str(v) for v in row] for row in y]
    return dict(doc, matrices=mats)


# -- shared checks ------------------------------------------------------------------

def _report_check(rep_path, theta_path, zero_arrow=False, cyclic=None):
    doc = _load(rep_path)
    dims = _dims_key(doc)
    entries = _theta_entries(theta_path)
    expected = checks.zero_arrow_report(entries, dims) if zero_arrow else None

    def check(out):
        got = checks.parse_report(out)
        checks.check_report_consistent(got, entries, dims)
        if expected is not None:
            expect(got == expected, f"report {got} != brute force {expected}")
        if cyclic is not None:
            expect(got[1] == cyclic, f"stable={got[1]} but framing-cyclic={cyclic}")

    return check


def _hn_check(rep_path, theta_path, zero_arrow=False):
    dims = _dims_key(_load(rep_path))
    entries = _theta_entries(theta_path)
    expected = checks.zero_arrow_hn(entries, dims) if zero_arrow else None

    def check(out):
        got = checks.parse_hn(out)
        checks.check_hn_consistent(got, entries, dims)
        if expected is not None:
            expect(got == expected, f"HN {got} != brute force {expected}")

    return check


def _stab_ops(ctx, tag, rep_path, type_label, n, Js, zero_arrow=False, which=("report", "hn")):
    doc = _load(rep_path)
    cyclic = checks.is_framing_cyclic(doc) if doc["field"] == "Fp" else None
    ops = []
    for J in Js:
        theta = ctx.theta_doc(type_label, n, J)
        jtag = "J" + "".join(map(str, J))
        for cmd in which:
            if cmd == "report":
                check = _report_check(
                    rep_path, theta, zero_arrow, cyclic if J == (0,) else None
                )
            else:
                check = _hn_check(rep_path, theta, zero_arrow)
            ops.append(ctx.cli_op(
                f"{tag}/{cmd}/{jtag}",
                ["stab", cmd, "--rep", rep_path, "--theta", theta],
                check,
            ))
    return ops


# -- lattice ---------------------------------------------------------------------------

# Zero-arrow modules (1, n*delta), as (type, n, p): stab report and stab hn
# at theta_J for every chamber J, and the lattice itself.  Lattice sizes:
# A2 n=1 16 nodes, A3 n=1 32, A1 n=2 50 over F2 and 72 over F3.
# Operations on larger lattices (108 to 768 nodes) take from a quarter
# second to half a minute and their times do not repeat within the bounds
# on a shared host; the README keeps them as reference figures.
LATTICE_ZERO = [
    ("A2", 1, 2), ("A2", 1, 3), ("A2", 1, 5),
    ("A3", 1, 2), ("A3", 1, 3), ("A3", 1, 5),
    ("A1", 2, 2), ("A1", 2, 3),
]
# orbit modules plus zero summands (0, (n - orbits) delta), as (type, n, p,
# orbits): stab report and stab hn at every chamber.  Lattice sizes: A2 n=2
# 24 nodes, A1 n=3 20, A2 n=3 40, A1 n=2 12.
ORBIT_PLUS_ZERO = [
    ("A2", 2, 2, 1), ("A1", 3, 3, 2), ("A2", 3, 2, 2), ("A1", 2, 3, 1), ("A1", 2, 5, 1),
]


def build_lattice(ctx: Context):
    ops = []
    for type_label, n, p in LATTICE_ZERO:
        tag = f"zero-{type_label}-n{n}-F{p}"
        path = ctx.write_doc(tag + ".json", zero_doc(type_label, n, p))
        ops += _stab_ops(ctx, tag, path, type_label, n, _chambers(type_label), zero_arrow=True)
        ops.append(_lattice_op(ctx, tag, path, _expected_dims(type_label, n), p))

    for type_label, n, p, orbits in ORBIT_PLUS_ZERO:
        # free orbits at seeded points, plus the zero module (0, (n - orbits) delta)
        points = ctx.rng.sample(POINT_POOL[type_label], orbits)
        orbit = json.loads(ctx.cli_untimed(
            ["rep", "orbit-sum", "--type", type_label, "--points", _points_arg(points),
             "--field", f"F{p}"]
        ))
        doc = direct_sum_docs(orbit, zero_doc(type_label, n - orbits, p, framed=False))
        doc = dict(gauge_conjugate_doc(doc, ctx.rng), n=n)
        tag = f"orbit+zero-{type_label}-n{n}-F{p}"
        path = ctx.write_doc(tag + ".json", doc)
        expect(_dims_key(doc) == _expected_dims(type_label, n), f"{tag} has the wrong dims")
        ops += _stab_ops(ctx, tag, path, type_label, n, _chambers(type_label))

    ctx.rng.shuffle(ops)
    return ops


def _lattice_op(ctx, tag, path, dims, p):
    qs, cli = ctx.qs, ctx.cli
    rep = cli.rep_from_doc(_load(path))
    nodes, relations = checks.zero_arrow_lattice_size(dims, p)

    def run():
        lattice = qs.submodule_lattice(rep)
        return len(lattice.nodes), len(lattice.relations)

    def check(out):
        expect(out == (nodes, relations), f"lattice {out} != product count {(nodes, relations)}")

    return Op(f"{tag}/lattice", run, check)


# -- hilb --------------------------------------------------------------------------------

# (type, n, prime): orbit modules of n free orbits, over Q and over F_p
HILB_ORBITS = [
    ("A1", 1, 3), ("A1", 2, 3), ("A1", 3, 3),
    ("A2", 1, 2), ("A2", 2, 2), ("A2", 3, 2),
    ("A3", 1, 3),
]
POINT_POOL = {
    # orbit invariants (x^m, xy, y^m) stay distinct mod p within each pool
    "A1": [(1, 0), (0, 1), (1, 1), (1, 2)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "A3": [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)],
}


def _points_arg(points):
    return ";".join(f"{x},{y}" for x, y in points)


def build_hilb(ctx: Context):
    groups = []
    for type_label, n, p in HILB_ORBITS:
        points = ctx.rng.sample(POINT_POOL[type_label], n)
        tag = f"orbit-{type_label}-n{n}"
        q_path, fp_path = ctx.path(tag + "-Q.json"), ctx.path(tag + f"-F{p}.json")
        dims = _expected_dims(type_label, n)
        ops = []
        for field, path in (("Q", q_path), (f"F{p}", fp_path)):
            ops.append(ctx.cli_op(
                f"{tag}/orbit-sum/{field}",
                ["rep", "orbit-sum", "--type", type_label, "-n", str(n),
                 "--points", _points_arg(points), "--field", field, "--out", path],
                _doc_check(path, dims),
            ))
        for path in (q_path, fp_path):
            ops.append(ctx.cli_op(f"{tag}/rep-check/{Path(path).stem}",
                                  ["rep", "check", "--rep", path], _module_check))
        # the stability ops read the document the flow writes, so build it now
        ops[1].run()
        ops += _stab_ops(ctx, tag, fp_path, type_label, n, _chambers(type_label))
        ops.append(ctx.cli_op(f"{tag}/tangent", ["stab", "tangent", "--rep", q_path],
                              _tangent_check(2 * n)))
        groups.append(ops)

    for tag, type_label, n, make in _hilb_variants(ctx):
        path = ctx.write_doc(tag + ".json", make)
        expect(_dims_key(make) == _expected_dims(type_label, n), f"{tag} has the wrong dims")
        ops = [ctx.cli_op(f"{tag}/rep-check", ["rep", "check", "--rep", path], _module_check)]
        ops += _stab_ops(ctx, tag, path, type_label, n, _chambers(type_label))
        groups.append(ops)

    ctx.rng.shuffle(groups)
    return [op for group in groups for op in group]


def _hilb_variants(ctx):
    """Test-corpus style variants: broken framing, gauge, direct sums."""
    rng = ctx.rng

    def orbit(type_label, points, p):
        return json.loads(ctx.cli_untimed(
            ["rep", "orbit-sum", "--type", type_label, "--points", _points_arg(points),
             "--field", f"F{p}"]
        ))

    a1 = rng.sample(POINT_POOL["A1"], 2)
    broken = orbit("A1", a1, 3)
    broken["matrices"]["b"] = [["0"] for _ in broken["matrices"]["b"]]
    yield "broken-A1-n2", "A1", 2, gauge_conjugate_doc(broken, rng)

    a2 = rng.sample(POINT_POOL["A2"], 2)
    yield "gauge-A2-n2", "A2", 2, gauge_conjugate_doc(orbit("A2", a2, 2), rng)

    a1 = rng.sample(POINT_POOL["A1"], 2)
    plus = direct_sum_docs(orbit("A1", a1[:1], 3), unframed(orbit("A1", a1[1:], 3)))
    yield "orbit+unframed-A1-n2", "A1", 2, dict(gauge_conjugate_doc(plus, rng), n=2)

    a2 = rng.sample(POINT_POOL["A2"], 1)
    base = orbit("A2", a2, 2)
    plus = direct_sum_docs(base, zero_doc("A2", 1, 2, framed=False))
    yield "orbit+zero-A2-n2", "A2", 2, dict(plus, n=2)


def _doc_check(path, dims):
    def check(out):
        doc = _load(path)
        expect(_dims_key(doc) == dims, f"orbit-sum wrote dims {_dims_key(doc)}, not {dims}")

    return check


def _module_check(out):
    lines = out.strip().splitlines()
    expect(bool(lines) and lines[-1] == "module true", "rep check did not print 'module true'")


def _tangent_check(expected):
    def check(out):
        expect(out.strip() == f"tangent {expected}", f"tangent {out.strip()!r} != {expected}")

    return check


# -- chambers --------------------------------------------------------------------------------

GROUP_ORDER = {"cyclic": lambda m: m, "bd": lambda m: 4 * m, "2T": 24, "2O": 48, "2I": 120}

# explicit transversal planes for rank >= 3 (the default plane is degenerate there)
SLICE_PLANES = {
    "A3": "base=1,0,0,0;d1=-3,2,0,1;d2=-3,0,2,1;window=-1,2,-1,2",
    "D4": "base=1,0,0,0,0;d1=-7,2,1,1,1;d2=-7,1,1,1,2;window=-1,2,-1,2",
}
# the documented default slice for two and three vertices
DEFAULT_PLANES = {
    2: ((0, 0), (1, 0), (0, 1), ("-6/5", "6/5", "-6/5", "6/5")),
    3: ((1, 0, 0), (-2, 1, 0), (-2, 0, 1), ("-1/5", "6/5", "-1/5", "6/5")),
}
SLICES = [("A1", 6), ("A1", 12), ("A2", 3), ("A3", 2), ("D4", 1)]
CONE_TYPES = [("A2", 3), ("A3", 2), ("D4", 2)]
BUILD_TYPES = [("A2", 3), ("A3", 2), ("D4", 2), ("E6", 1), ("E8", 2)]


def build_chambers(ctx: Context):
    rng = ctx.rng
    groups = []
    # every run verifies the same groups, so the seed changes only the order
    for group, type_label in [
        *((f"cyclic:{m}", f"A{m - 1}") for m in range(2, 7)),
        *((f"bd:{m}", f"D{m + 2}") for m in range(2, 5)),
        ("2T", "E6"), ("2O", "E7"), ("2I", "E8"),
    ]:
        groups.append([ctx.cli_op(f"mckay/{group}", ["mckay", "verify", group, type_label],
                                  _mckay_check(group, type_label))])

    for type_label, n in BUILD_TYPES:
        groups.append([ctx.cli_op(f"build/{type_label}-n{n}",
                                  ["walls", "build", "--type", type_label, "-n", str(n)],
                                  _build_check(type_label, n))])

    for type_label, n in SLICES:
        groups.append([_slice_op(ctx, type_label, n)])

    for type_label, n in CONE_TYPES:
        for J in _chambers(type_label):
            groups.append(_craw_wye_ops(ctx, type_label, n, J))
        groups += [[op] for op in _interior_ops(ctx, type_label, n)]

    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _mckay_check(group, type_label):
    family, _, m = group.partition(":")
    order = GROUP_ORDER[family](int(m)) if m else GROUP_ORDER[family]
    fam, rank = checks.parse_type(type_label)
    size = rank + 1

    def check(out):
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        expect(fields.get("group") == f"{group} order {order}", f"mckay group line {fields.get('group')!r}")
        for flag in ("sum_squares_ok", "adjacency_ok", "dims_ok"):
            expect(fields.get(flag) == "true", f"mckay {flag} is {fields.get(flag)!r}")
        pairs = [tuple(int(x) for x in item.split("->")) for item in fields["matching"].split()]
        expect(sorted(w for w, _ in pairs) == list(range(size))
               and sorted(v for _, v in pairs) == list(range(size)), "matching is no bijection")
        expect((0, 0) in pairs, "matching does not fix vertex 0")

    return check


def _build_check(type_label, n):
    normals = checks.wall_normals(type_label, n)

    def check(out):
        lines = out.splitlines()
        expect(lines[0] == f"count {len(normals)}", f"{lines[0]!r} != count {len(normals)}")
        rows = sorted(tuple(int(x) for x in line.split()) for line in lines[1:])
        expect(rows == normals, "printed walls differ from the recount")

    return check


def _parse_plane(text):
    fields = dict(chunk.split("=") for chunk in text.split(";"))
    return tuple(tuple(Fraction(x) for x in fields[k].split(",")) for k in ("base", "d1", "d2", "window"))


def _slice_op(ctx, type_label, n):
    tag = f"slice/{type_label}-n{n}"
    svg, tsv = ctx.path(f"slice-{type_label}-n{n}.svg"), ctx.path(f"slice-{type_label}-n{n}.tsv")
    argv = ["walls", "slice", "--type", type_label, "-n", str(n), "--out", svg, "--table", tsv]
    plane_text = SLICE_PLANES.get(type_label)
    if plane_text:
        argv += ["--plane", plane_text]
        base, d1, d2, window = _parse_plane(plane_text)
    else:
        family, rank = checks.parse_type(type_label)
        base, d1, d2, window = DEFAULT_PLANES[rank + 1]
    cells = checks.slice_cell_count(checks.wall_normals(type_label, n), base, d1, d2, window)
    first = []

    def check(out):
        expect(out.strip().startswith(f"cells {cells} "), f"{out.strip()!r}: recount gives {cells} cells")
        with open(svg, "rb") as fh_svg, open(tsv, "rb") as fh_tsv:
            digest = hashlib.sha256(fh_svg.read() + b"\0" + fh_tsv.read()).hexdigest()
        if not first:
            first.append(digest)
        expect(digest == first[0], "a repeated slice is not byte-identical")

    return ctx.cli_op(tag, argv, check)


def _craw_wye_ops(ctx, type_label, n, J):
    family, rank = checks.parse_type(type_label)
    d = checks.delta(family, rank)
    h = sum(d)
    K = [k for k in range(1, rank + 1) if k not in J]
    jtag = "".join(map(str, J))
    path = ctx.path(f"cone-theta-{type_label}-n{n}-J{jtag}.json")

    def theta_check(out):
        lines = out.splitlines()
        values = dict(line.split(" ", 1) for line in lines[2:])
        entries = [Fraction(values[str(i)]) for i in range(rank + 1)]
        for i in range(1, rank + 1):
            want = n * h if i in J else 1
            expect(entries[i] == want, f"theta entry {i} is {entries[i]}, not {want}")
        expect(sum(x * e for x, e in zip(d, entries)) == h, "theta(delta) != h")
        expect(Fraction(values["inf"]) == -n * h, "framing entry does not balance (1, n delta)")

    def cone_check(out):
        expect(out.strip() == "true", f"theta_J not in its chamber C_K: {out.strip()!r}")

    return [
        ctx.cli_op(f"theta/{type_label}-n{n}-J{jtag}",
                   ["theta", "craw-wye", "--type", type_label, "-n", str(n),
                    "--J", ",".join(map(str, J)), "--out", path], theta_check),
        ctx.cli_op(f"cone/{type_label}-n{n}-J{jtag}",
                   ["cone", "check", "--theta", path, "--cone", "C", "--K", ",".join(map(str, K))],
                   cone_check),
    ]


def _interior_ops(ctx, type_label, n):
    qs = ctx.qs
    rs = qs.build_root_system(qs.DynkinType.parse(type_label))
    ops = []
    for J in _chambers(type_label):
        K = frozenset(rs.vertices[1:]) - frozenset(J)
        for kind in ("C", "sigma"):
            spec = qs.ConeSpec(kind=kind, n=n, K=K)
            constraints = qs.cone_constraints(rs, spec)

            def run(spec=spec, constraints=constraints):
                return qs.interior_point(rs, n, constraints)

            def check(theta, spec=spec, constraints=constraints):
                expect(theta is not None, f"no witness for {spec}")
                for coeffs, rel in constraints:
                    value = sum(Fraction(c) * t for c, t in zip(coeffs, theta.entries))
                    ok = value > 0 if rel == ">" else value >= 0 if rel == ">=" else value == 0
                    expect(ok, f"witness fails {coeffs} {rel} 0")
                expect(qs.cone_membership(theta, spec), "witness fails cone_membership")

            ktag = "".join(map(str, sorted(K)))
            ops.append(Op(f"interior/{type_label}-n{n}-{kind}{ktag}", run, check))
    return ops


def build(name, ctx: Context):
    ops = WORKLOADS[name](ctx)
    names = [op.name for op in ops]
    expect(len(set(names)) == len(names), "operation names repeat")
    return ops


WORKLOADS = {"lattice": build_lattice, "hilb": build_hilb, "chambers": build_chambers}
