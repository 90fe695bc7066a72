"""Fraction pairings and witnesses as the stability code computed them before its integer kernel.

Every pairing is a sum of Fraction products over the entries, and the
framing entry is rebuilt from the context.  ``test_sign_kernel_oracle.py``
compares these with the integer numerators of :mod:`quiverstab.stability`
and :func:`quiverstab.walls.sign_vector`.

``feasible_point`` is the Fourier-Motzkin witness with its back-substitution
in Fraction values, as :mod:`quiverstab.walls` computed it before it held
the witness as integer numerators over one denominator; the elimination is
the package's own.  ``test_fm_witness_oracle.py`` compares the two.
"""

from __future__ import annotations

from fractions import Fraction

from quiverstab.stability import cone_constraints, holds, make_theta
from quiverstab.walls import _as_triples, _combine, _normalize


def value(theta, coeffs) -> Fraction:
    return sum((Fraction(c) * e for c, e in zip(coeffs, theta.entries)), Fraction(0))


def theta_inf(theta) -> Fraction:
    return -value(theta, theta.context)


def pair_dim(theta, d) -> Fraction:
    return d.r * theta_inf(theta) + value(theta, d.v)


def sign_vector(arr, theta):
    out = []
    for h in arr.hyperplanes:
        val = value(theta, h)
        out.append("+" if val > 0 else "-" if val < 0 else "0")
    return tuple(out)


def cone_membership(theta, cone, closed=False) -> bool:
    return all(
        holds(value(theta, coeffs), rel)
        for coeffs, rel in cone_constraints(theta.rs, cone, closed=closed)
    )


def dot(coeffs, values):
    return sum((c * x for c, x in zip(coeffs, values)), 0)


def feasible_point(constraints, nvars):
    """A list of Fractions satisfying all (coeffs, rel, rhs) rows, or None."""
    original = [_normalize(c, r, b) for c, r, b in constraints]
    rows = list(original)

    substitutions = []
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

    values = [Fraction(0)] * nvars
    for var, system in reversed(stages):
        best_lo = None  # (value, strict)
        best_hi = None
        for c, rel, b in system:
            if c[var] == 0:
                continue
            bound = (b - dot(c, values)) / c[var]
            strict = rel == ">"
            if c[var] > 0:
                if best_lo is None or bound > best_lo[0] or (
                    bound == best_lo[0] and strict
                ):
                    best_lo = (bound, strict)
            else:
                if best_hi is None or bound < best_hi[0] or (
                    bound == best_hi[0] and strict
                ):
                    best_hi = (bound, strict)
        if best_lo is None and best_hi is None:
            values[var] = Fraction(0)
        elif best_hi is None:
            values[var] = best_lo[0] + 1
        elif best_lo is None:
            values[var] = best_hi[0] - 1
        elif best_lo[0] < best_hi[0]:
            values[var] = (best_lo[0] + best_hi[0]) / 2
        else:
            if best_lo[0] > best_hi[0] or best_lo[1] or best_hi[1]:
                raise AssertionError("elimination certified an infeasible stage")
            values[var] = best_lo[0]

    for var, coeffs, rhs in reversed(substitutions):
        values[var] = (rhs - dot(coeffs, values)) / coeffs[var]

    if not all(holds(dot(c, values), rel, b) for c, rel, b in original):
        raise AssertionError("witness fails a constraint it was built from")
    return values


def interior_point(rs, n, constraints):
    values = feasible_point(_as_triples(constraints), len(rs.vertices))
    if values is None:
        return None
    return make_theta(rs, tuple(n * d for d in rs.delta), values)


def generic_relint_point(rs, n, constraints, avoid):
    triples = _as_triples(constraints)
    nvars = len(rs.vertices)
    point = feasible_point(triples, nvars)
    if point is None:
        return None, ()
    avoid = [tuple(c) for c in avoid]
    forced = []
    for c in avoid:
        if dot(c, point) != 0:
            continue
        target = feasible_point(triples + [(c, ">", 0)], nvars)
        if target is None:
            target = feasible_point(triples + [(tuple(-x for x in c), ">", 0)], nvars)
        if target is None:
            forced.append(c)
            continue
        roots = set()
        for f in avoid:
            at_point = dot(f, point)
            gap = at_point - dot(f, target)
            if at_point != 0 and gap != 0:
                roots.add(at_point / gap)
        k = next(k for k in range(1, len(roots) + 2) if Fraction(1, k) not in roots)
        point = [x + (y - x) / k for x, y in zip(point, target)]
    return make_theta(rs, tuple(n * d for d in rs.delta), point), tuple(forced)
