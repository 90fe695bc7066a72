"""Command-line interface and the JSON document formats.

Representations and stability vectors travel as JSON with every numeric
entry given as an exact rational string ("a/b" or "a"), so a document
round-trips without precision loss.  Exit codes: 0 on success, 1 on a
domain error (the error class name goes to stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .errors import ContextMismatch, DomainError
from .fieldops import PrimeField, QQ
from .mckay import GroupSpec, build_mckay, verify_correspondence
from .quiverrep import (
    DimVector,
    FramedRep,
    framed_orbit_sum,
    framed_quiver,
    moment_defect,
)
from .rootsys import DynkinType, build_root_system, check_digit_runs, parse_int
from .stability import ConeSpec, cone_membership, craw_wye_theta, make_theta
from .stabcheck import hn_filtration, stability_report, tangent_dimension
from .walls import SlicePlane, build_arrangement, figure_plane, render_slice


class DocumentError(DomainError):
    pass


# what reading a JSON value of the wrong type, shape or size can raise
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError)


# Largest decimal exponent accepted in a rational literal.  Fraction("1e9999999")
# builds a ten-million-digit integer (15 s, and ten times longer per extra
# digit), while Python refuses plain integers of over 4,300 digits; this
# applies the same limit to exponents.
MAX_EXPONENT = 4300

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(value):
    """``Fraction(value)`` for a document entry or flag, with a bounded exponent.

    A string that :func:`parse_int` reads is that int, the same value
    without the exponent test and ``Fraction``'s parser; every caller
    coerces the entry, so a plain int serves.  Raises DocumentError for a
    JSON float or boolean, which is no exact entry, and for a decimal
    exponent of magnitude over MAX_EXPONENT.  A digit run over 4,300 digits
    raises ValueError (:func:`check_digit_runs`) before ``Fraction`` reads
    it, and every caller reports that as malformed.
    """
    if isinstance(value, str):
        check_digit_runs(value)
        try:
            return parse_int(value)
        except ValueError:
            pass
        match = _EXPONENT.search(value)
        if match and abs(int(match.group(1))) > MAX_EXPONENT:
            raise DocumentError(
                f"a rational literal has a decimal exponent beyond {MAX_EXPONENT} in magnitude"
            )
    elif isinstance(value, (bool, float)):
        raise DocumentError(f"entry {value!r} is not a rational string or an integer")
    return Fraction(value)


# -- documents ----------------------------------------------------------------

def _rs_of(type_text: str):
    return build_root_system(DynkinType.parse(type_text))


def theta_to_doc(theta) -> dict:
    rs = theta.rs
    n = theta.context[0]  # delta[0] == 1, so the context determines n directly
    return {
        "type": rs.dynkin.label(),
        "n": n,
        "entries": {str(i): str(theta.entries[i]) for i in rs.vertices},
    }


def theta_from_doc(doc: dict):
    try:
        rs = _rs_of(doc["type"])
        n = parse_int(doc["n"])
        entries = [_rational(doc["entries"][str(i)]) for i in rs.vertices]
    except _MALFORMED as exc:
        raise DocumentError(f"malformed stability document: {exc}") from None
    return make_theta(rs, tuple(n * d for d in rs.delta), entries)


def rep_to_doc(rep: FramedRep, n: int) -> dict:
    rs = rep.quiver.rs
    doc = {
        "type": rs.dynkin.label(),
        "n": n,
        "field": "Fp" if isinstance(rep.field, PrimeField) else "Q",
        "dims": {"inf": rep.dims.r, **{str(i): rep.dims.v[i] for i in rs.vertices}},
        "matrices": {
            label: [[str(x) for x in row] for row in mat]
            for label, mat in sorted(rep.matrices.items())
        },
    }
    if isinstance(rep.field, PrimeField):
        doc["p"] = rep.field.p
    return doc


def rep_from_doc(doc: dict) -> FramedRep:
    try:
        rs = _rs_of(doc["type"])
        parse_int(doc["n"])  # checked only: the dims give the module's size
        if doc["field"] == "Q":
            field = QQ
        elif doc["field"] == "Fp":
            field = PrimeField(parse_int(doc["p"]))
        else:
            raise DocumentError(f"unknown field tag {doc['field']!r}")
        dims = DimVector(
            parse_int(doc["dims"]["inf"]),
            tuple(parse_int(doc["dims"][str(i)]) for i in rs.vertices),
        )
        matrices = {}
        for label, mat in doc.get("matrices", {}).items():
            # a string or dict would otherwise be read entry by entry
            if not (isinstance(mat, list) and all(isinstance(row, list) for row in mat)):
                raise DocumentError(f"matrix {label!r} is not a JSON list of rows")
            matrices[label] = [[_rational(x) for x in row] for row in mat]
    except _MALFORMED as exc:
        raise DocumentError(f"malformed representation document: {exc}") from None
    return FramedRep(framed_quiver(rs), field, dims, matrices)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)  # names the digit limit it refuses
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, JSON or int
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


_encode = json.JSONEncoder().encode  # one leaf or key, as json.dumps writes it
_CONTAINERS = frozenset((dict, list, tuple))


def _emit(out: list, x, pad: str):
    """Append to ``out`` the text of ``x`` laid out as ``json.dumps(x, indent=2, sort_keys=True)``.

    ``pad`` is the indent of the line ``x`` starts on; keys are strings.
    The stdlib's indented encoder is pure Python and leaves cyclic garbage
    behind, so containers are walked here and only leaves are encoded; a
    list of leaves, such as a matrix row, is joined in one step.
    """
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        sep = "{\n" + inner
        for key in sorted(x):
            out.append(sep + _encode(key) + ": ")
            _emit(out, x[key], inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
        elif _CONTAINERS.isdisjoint(map(type, x)):
            out.append("[\n" + inner + (",\n" + inner).join(map(_encode, x)) + "\n" + pad + "]")
        else:
            sep = "[\n" + inner
            for item in x:
                out.append(sep)
                _emit(out, item, inner)
                sep = ",\n" + inner
            out.append("\n" + pad + "]")
    else:
        out.append(_encode(x))


def _dump_json(doc: dict, path: str | None):
    out = []
    _emit(out, doc, "")
    text = "".join(out) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


# -- flag parsing helpers -----------------------------------------------------

def _parse_vertex_set(text: str) -> frozenset:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(parse_int(x.strip()) for x in text.split(","))
    except ValueError:
        raise DocumentError(f"bad vertex list {text!r}") from None


def _parse_field(tag: str):
    tag = tag.strip()
    if tag == "Q":
        return QQ
    try:
        if not (tag.startswith("F") and tag[1:].isdigit()):  # no sign
            raise ValueError
        p = parse_int(tag[1:])  # refuses digits like "٣" and over 4300 digits
    except ValueError:
        raise DocumentError(f"unknown field {tag!r} (use Q or F<p>)") from None
    return PrimeField(p)


def _int_flag(text: str) -> int:
    return parse_int(text)


_int_flag.__name__ = "int"  # argparse's usage error names the type: "invalid int value"


def _parse_fractions(text: str):
    try:
        return tuple(_rational(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"bad rational list {text!r}") from None


def _parse_plane(text: str, n_vertices: int) -> SlicePlane:
    fields = {}
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        key, sep, val = chunk.partition("=")
        if not sep:
            raise DocumentError(f"bad plane chunk {chunk!r}")
        fields[key.strip()] = _parse_fractions(val)
    missing = {"base", "d1", "d2"} - set(fields)
    if missing:
        raise DocumentError(f"plane spec lacks {sorted(missing)}")
    for key in ("base", "d1", "d2"):
        if len(fields[key]) != n_vertices:
            raise DocumentError(f"plane {key} needs {n_vertices} entries")
    window = fields.get("window", (Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)))
    if len(window) != 4:
        raise DocumentError("plane window needs 4 entries")
    return SlicePlane(
        base=fields["base"], d1=fields["d1"], d2=fields["d2"], window=tuple(window)
    )


def _parse_points(text: str):
    points = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        coords = _parse_fractions(chunk)
        if len(coords) != 2:
            raise DocumentError(f"point {chunk!r} is not planar")
        points.append(tuple(coords))
    if not points:
        raise DocumentError("no points given")
    return points


def _parse_label(text: str, n: int):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise DocumentError(
            f"label {text!r} is not name:kind:K or name:kind:K:Kp"
        )
    name, kind = parts[0], parts[1]
    # "-" marks an unlabeled cell; the table is tab-separated lines, and XML
    # admits no control character
    if name in ("", "-") or not name.isprintable():
        raise DocumentError(f"label name {name!r} is empty, '-' or not printable")
    K = _parse_vertex_set(parts[2])
    Kp = _parse_vertex_set(parts[3]) if len(parts) == 4 else frozenset()
    return name, ConeSpec(kind=kind, n=n, K=K, Kp=Kp)


# -- subcommand bodies ---------------------------------------------------------

def _cmd_rootsys_show(args) -> int:
    rs = _rs_of(args.type)
    print(f"type {rs.dynkin.label()}")
    print(f"vertices {' '.join(str(v) for v in rs.vertices)}")
    print(f"delta {' '.join(str(d) for d in rs.delta)}")
    print(f"h {rs.h}")
    print(f"positive_roots {len(rs.positive_roots)}")
    print("affine_cartan")
    for row in rs.affine_cartan:
        print(" ".join(f"{x:3d}" for x in row))
    return 0


def _cmd_mckay_verify(args) -> int:
    spec = GroupSpec.parse(args.group)
    rs = _rs_of(args.type)
    data = build_mckay(spec)
    report = verify_correspondence(data, rs)
    print(f"group {spec.label()} order {data.order()}")
    print(f"type {rs.dynkin.label()}")
    print(f"sum_squares_ok {str(report.sum_squares_ok).lower()}")
    print(f"adjacency_ok {str(report.adjacency_ok).lower()}")
    print(f"dims_ok {str(report.dims_ok).lower()}")
    print("matching " + " ".join(f"{w}->{v}" for w, v in enumerate(report.matching)))
    return 0


def _cmd_theta_craw_wye(args) -> int:
    rs = _rs_of(args.type)
    J = _parse_vertex_set(args.J)
    theta = craw_wye_theta(rs, J, args.n)
    if args.out:
        _dump_json(theta_to_doc(theta), args.out)
    print(f"type {rs.dynkin.label()}")
    print(f"n {args.n}")
    for i in rs.vertices:
        print(f"{i} {theta.entries[i]}")
    print(f"inf {theta.theta_inf}")
    return 0


def _cmd_cone_check(args) -> int:
    theta = theta_from_doc(_load_json(args.theta))
    n = theta.context[0]
    cone = ConeSpec(
        kind=args.cone,
        n=n,
        K=_parse_vertex_set(args.K),
        Kp=_parse_vertex_set(args.Kp),
    )
    verdict = cone_membership(theta, cone, closed=args.closed)
    print(str(verdict).lower())
    return 0


def _cmd_walls_build(args) -> int:
    rs = _rs_of(args.type)
    arr = build_arrangement(rs, args.n)
    print(f"count {len(arr)}")
    for h in arr.hyperplanes:
        print(" ".join(str(c) for c in h))
    return 0


def _cmd_walls_slice(args) -> int:
    rs = _rs_of(args.type)
    plane = (
        _parse_plane(args.plane, len(rs.vertices)) if args.plane else figure_plane(rs)
    )
    labels = [_parse_label(text, args.n) for text in args.label] if args.label else None
    result = render_slice(rs, args.n, plane, labels)
    _write_text(args.out, result.svg)
    if args.table:
        _write_text(args.table, result.table)
    else:
        sys.stdout.write(result.table)
    labeled = sum(1 for cell in result.cells if cell.label != "-")
    print(f"cells {len(result.cells)} labeled {labeled}")
    return 0


def _cmd_rep_check(args) -> int:
    rep = rep_from_doc(_load_json(args.rep))
    defect = moment_defect(rep)
    for i in rep.quiver.rs.vertices:
        print(f"vertex {i}")
        mat = defect[i]
        if not mat:
            print("  (empty)")
        for row in mat:
            print("  " + " ".join(str(x) for x in row))
    # a module is a representation whose relation defect vanishes
    module = not any(x for mat in defect.values() for row in mat for x in row)
    print(f"module {str(module).lower()}")
    return 0


def _cmd_rep_orbit_sum(args) -> int:
    rs = _rs_of(args.type)
    field = _parse_field(args.field)
    points = _parse_points(args.points)
    if args.n is not None and args.n != len(points):
        raise DocumentError(f"-n {args.n} disagrees with {len(points)} points")
    rep = framed_orbit_sum(rs, points, field)
    _dump_json(rep_to_doc(rep, n=len(points)), args.out)
    return 0


def _rep_and_theta(args):
    """The --rep and --theta documents, refused unless theta fits the representation.

    Theta fits when it is for the representation's type and its dimension
    vector is (1, n * delta) for theta's n.  The engines pair any theta of
    the right length with the lattice, but such a verdict says nothing.
    """
    rep = rep_from_doc(_load_json(args.rep))
    theta = theta_from_doc(_load_json(args.theta))
    if theta.rs != rep.quiver.rs or rep.dims.key() != (1,) + theta.context:
        raise ContextMismatch(
            f"theta of type {theta.rs.dynkin.label()} with n = {theta.context[0]} does not fit "
            f"the {rep.quiver.rs.dynkin.label()} representation of dimension {rep.dims.key()}"
        )
    return rep, theta


def _cmd_stab_report(args) -> int:
    rep, theta = _rep_and_theta(args)
    report = stability_report(rep, theta)
    print(f"semistable {str(report.semistable).lower()}")
    print(f"stable {str(report.stable).lower()}")
    if report.witness is None:
        print("witness -")
    else:
        dims = report.witness.dims
        print(
            "witness " + " ".join(str(x) for x in (dims.r,) + dims.v)
        )
    print(f"caveat {report.caveat}")
    return 0


def _cmd_stab_hn(args) -> int:
    rep, theta = _rep_and_theta(args)
    filtration = hn_filtration(rep, theta)
    for k, layer in enumerate(filtration.layers):
        dims = " ".join(str(x) for x in (layer.dims.r,) + layer.dims.v)
        jh = ";".join(",".join(str(x) for x in key) for key in layer.jh_dims)
        print(f"layer {k} dims {dims} slope {layer.slope} jh {jh}")
    return 0


def _cmd_stab_tangent(args) -> int:
    rep = rep_from_doc(_load_json(args.rep))
    print(f"tangent {tangent_dimension(rep)}")
    return 0


# -- parser --------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call.

    Parsing does not change the parser (each call fills a fresh namespace),
    so one instance serves all calls in a process.  Its ``leaves`` map each
    (group, command) pair to that command's own parser, whose prog is
    ``quiverstab <group> <command>``.
    """
    parser = argparse.ArgumentParser(
        prog="quiverstab",
        description="Exact chamber combinatorics and module stability checks "
        "for framed affine ADE quivers.",
    )
    sub = parser.add_subparsers(dest="group_cmd", required=True)
    group_help = {
        "rootsys": "root system data",
        "mckay": "finite subgroups of SL(2, C)",
        "theta": "stability vectors",
        "cone": "cone membership",
        "walls": "wall arrangements and slices",
        "rep": "framed representations",
        "stab": "stability certification",
    }
    groups = {}  # group -> the subparsers action of its commands
    parser.leaves = {}

    def command(group, name, help, func):
        """Add the parser of ``quiverstab <group> <name>``, which runs ``func``."""
        if group not in groups:
            p_group = sub.add_parser(group, help=group_help[group])
            groups[group] = p_group.add_subparsers(dest="cmd", required=True)
        leaf = parser.leaves[group, name] = groups[group].add_parser(name, help=help)
        leaf.set_defaults(func=func)
        return leaf

    p = command("rootsys", "show", "print Cartan data for one type", _cmd_rootsys_show)
    p.add_argument("type")

    p = command("mckay", "verify", "check group data against a root system", _cmd_mckay_verify)
    p.add_argument("group", help="cyclic:<m>, bd:<m>, 2T, 2O, or 2I")
    p.add_argument("type")

    p = command("theta", "craw-wye", "explicit chamber representative", _cmd_theta_craw_wye)
    p.add_argument("--type", required=True)
    p.add_argument("-n", type=_int_flag, required=True)
    p.add_argument("--J", required=True, help="comma list of vertices, must contain 0")
    p.add_argument("--out", help="also write a theta JSON document")

    p = command("cone", "check", "test a theta document against one cone", _cmd_cone_check)
    p.add_argument("--theta", required=True)
    p.add_argument("--cone", required=True, choices=["F", "C", "sigma", "sigmaKK"])
    p.add_argument("--K", default="", help="comma list of vertices")
    p.add_argument("--Kp", default="", help="comma list of vertices (sigmaKK only)")
    p.add_argument("--closed", action="store_true", help="test the closed cone")

    p = command("walls", "build", "enumerate the wall normals", _cmd_walls_build)
    p.add_argument("--type", required=True)
    p.add_argument("-n", type=_int_flag, required=True)
    p = command("walls", "slice", "render a transversal slice", _cmd_walls_slice)
    p.add_argument("--type", required=True)
    p.add_argument("-n", type=_int_flag, required=True)
    p.add_argument(
        "--plane",
        help="base=..;d1=..;d2=..[;window=smin,smax,tmin,tmax] with rational entries",
    )
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--table", help="TSV cell table path (default: stdout)")
    p.add_argument(
        "--label",
        action="append",
        help="name:kind:K[:Kp], e.g. 'C+:C:1,2'; default labels every chamber",
    )

    p = command("rep", "check", "print the relation defect of a document", _cmd_rep_check)
    p.add_argument("--rep", required=True)
    p = command("rep", "orbit-sum", "module of functions on free orbits", _cmd_rep_orbit_sum)
    p.add_argument("--type", required=True)
    p.add_argument("-n", type=_int_flag, help="expected orbit count (checked against points)")
    p.add_argument("--points", required=True, help="x1,y1;x2,y2;...")
    p.add_argument("--field", default="Q", help="Q or F<p>")
    p.add_argument("--out", help="rep JSON output path (default: stdout)")

    p = command("stab", "report", "(semi)stability with witness", _cmd_stab_report)
    p.add_argument("--rep", required=True)
    p.add_argument("--theta", required=True)
    p = command("stab", "hn", "Harder-Narasimhan filtration", _cmd_stab_hn)
    p.add_argument("--rep", required=True)
    p.add_argument("--theta", required=True)
    p = command("stab", "tangent", "moduli tangent dimension", _cmd_stab_tangent)
    p.add_argument("--rep", required=True)
    return parser


def _parse(parser, argv):
    """The namespace of ``argv``, parsed by its command's own parser when it names one.

    A command's parser is the one the whole parser would hand the rest of
    ``argv`` to, so parsing there gives the same namespace, usage errors and
    help, without the two enclosing parses.  Arguments it leaves over are
    refused by the whole parser, in its words.  Anything else (no command,
    an unknown one, or an option before it) goes to the whole parser.
    """
    leaf = parser.leaves.get(tuple(argv[:2]))
    if leaf is None:
        return parser.parse_args(argv)
    args, extras = leaf.parse_known_args(argv[2:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
