"""The earlier tangent computation, kept as a test oracle for ``stabcheck``.

It linearises the relations by finite differences: for the unit bump E
of one arrow entry, f(x + E) - f(x) - f(E) is exactly the directional
derivative because the relations are quadratic.  Each column costs two
representation builds and two full ``moment_defect`` evaluations.  Slow
but independent of the closed form; ``test_tangent_oracle.py`` compares
the two.  It also keeps the rank of the infinitesimal gauge action as a
second elimination, which ``stabcheck`` replaces by the equal rank of the
relation Jacobian.
"""

from __future__ import annotations

from functools import cache

from quiverstab.errors import NotAModule, UnsupportedField
from quiverstab.fieldops import Rationals, rank
from quiverstab.quiverrep import FramedRep, is_pi_bar_module, moment_defect


def _defect_flat(rep: FramedRep):
    defect = moment_defect(rep)
    flat = []
    for i in rep.quiver.rs.vertices:
        for row in defect[i]:
            flat.extend(row)
    return flat


@cache  # representations are immutable; the oracle test asks twice for each
def reference_jacobian(rep: FramedRep):
    """Columns of the relation linearisation, one per arrow entry, by differences."""
    field = rep.field
    base_flat = _defect_flat(rep)
    zeroed = FramedRep(rep.quiver, field, rep.dims, {})
    columns = []
    for a in rep.quiver.arrows:
        m, n = rep.dims.at(a.head), rep.dims.at(a.tail)
        for i in range(m):
            for j in range(n):
                single = tuple(
                    tuple(
                        field.one if (r_, c_) == (i, j) else field.zero
                        for c_ in range(n)
                    )
                    for r_ in range(m)
                )
                bumped = [list(row) for row in rep.matrix(a.label)]
                bumped[i][j] = field.reduce([bumped[i][j] + field.one])[0]
                plus = rep.with_matrix(a.label, tuple(tuple(r) for r in bumped))
                pure = zeroed.with_matrix(a.label, single)
                f_plus = _defect_flat(plus)
                f_pure = _defect_flat(pure)
                columns.append(
                    field.reduce(
                        p - b - q
                        for p, b, q in zip(f_plus, base_flat, f_pure)
                    )
                )
    return columns


def reference_gauge_columns(rep: FramedRep):
    """Columns of the infinitesimal gauge action, one per affine gauge entry.

    The unit E_ij at an affine vertex moves each arrow x by E_ij x at its
    head and by -x E_ij at its tail; each column lists those blocks over
    the arrows in quiver order, every block row-major.
    """
    field = rep.field
    stab_cols = []
    for vertex in rep.quiver.rs.vertices:
        d = rep.dims.v[vertex]
        for i in range(d):
            for j in range(d):
                col = []
                for a in rep.quiver.arrows:
                    m, n = rep.dims.at(a.head), rep.dims.at(a.tail)
                    x = rep.matrix(a.label)
                    block = [[field.zero] * n for _ in range(m)]
                    if a.head == vertex:
                        for c in range(n):
                            block[i][c] = field.reduce([block[i][c] + x[j][c]])[0]
                    if a.tail == vertex:
                        for r in range(m):
                            block[r][j] = field.reduce([block[r][j] - x[r][i]])[0]
                    col.extend(v for row in block for v in row)
                stab_cols.append(tuple(col))
    return stab_cols


def reference_tangent_dimension(rep: FramedRep) -> int:
    """dim ker(relation linearisation) - gauge dimension + stabilizer dimension."""
    if not isinstance(rep.field, Rationals):
        raise UnsupportedField("tangent computation runs over the rationals")
    if not is_pi_bar_module(rep):
        raise NotAModule("relations do not vanish at this representation")
    field = rep.field
    columns = reference_jacobian(rep)
    dmu_rank = rank(field, tuple(zip(*columns))) if columns else 0

    gauge_dim = sum(v * v for v in rep.dims.v)
    stab_cols = reference_gauge_columns(rep)
    stab_rank = rank(field, tuple(zip(*stab_cols))) if stab_cols else 0
    stab_dim = gauge_dim - stab_rank

    return (len(columns) - dmu_rank) - gauge_dim + stab_dim
