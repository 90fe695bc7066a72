"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (visible with pytest -s or
in the captured output); all numeric checks are exact unless a criterion
states a runtime budget, which is asserted with a monotonic clock.
"""

import itertools
import time
from fractions import Fraction

from corpus import build_corpus

from quiverstab import (
    ConeSpec,
    DimVector,
    DynkinType,
    build_arrangement,
    build_root_system,
    cone_constraints,
    cone_membership,
    corner_bounds_check,
    craw_wye_theta,
    figure_plane,
    hn_filtration,
    is_framing_cyclic,
    make_theta,
    pair_dim,
    render_slice,
    sign_vector,
    stability_report,
    tangent_dimension,
    framed_orbit_sum,
)
from quiverstab.fieldops import QQ, mat_vec, nullspace, mat_coerce
from quiverstab.mckay import GroupSpec, build_mckay, verify_correspondence
from quiverstab.stabcheck import _vertex_order
from quiverstab.walls import generic_relint_point, sample_interior_points


def _rs(label):
    return build_root_system(DynkinType.parse(label))


def _all_J(rs):
    rest = [i for i in rs.vertices if i != 0]
    for mask in range(1 << len(rest)):
        yield frozenset({0} | {v for b, v in enumerate(rest) if mask >> b & 1})


def test_criterion_1_mckay_suite():
    start = time.monotonic()
    specs = (
        [GroupSpec("cyclic", m) for m in range(2, 9)]
        + [GroupSpec("binary_dihedral", m) for m in range(2, 6)]  # order <= 20
        + [
            GroupSpec("binary_tetrahedral"),
            GroupSpec("binary_octahedral"),
            GroupSpec("binary_icosahedral"),
        ]
    )
    for spec in specs:
        data = build_mckay(spec)
        rs = build_root_system(spec.designated_dynkin())
        assert sum(d * d for d in data.irrep_dims) == data.order() == spec.order()
        report = verify_correspondence(data, rs)
        assert report.adjacency_ok, spec.label()
        assert report.dims_ok, spec.label()
        assert report.sum_squares_ok, spec.label()
        sigma = report.matching
        n = len(rs.vertices)
        for u in range(n):
            for v in range(n):
                expected = (2 if u == v else 0) - rs.affine_cartan[sigma[u]][sigma[v]]
                assert data.adjacency[u][v] == expected
            assert data.irrep_dims[u] == rs.delta[sigma[u]]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: McKay suite over {len(specs)} groups, "
        f"integer identities exact, {elapsed:.2f}s < 10s"
    )


def test_criterion_2_arrangement_counts():
    expected = {("A1", 1): 2, ("A1", 2): 4, ("A2", 3): 16}
    for (label, n), count in expected.items():
        rs = _rs(label)
        arr = build_arrangement(rs, n)
        assert len(arr) == count
        # independent recomputation: affine normalization instead of
        # primitive integer normals
        seen = set()
        vectors = [tuple(rs.delta)]
        for m in range(n):
            for alpha in rs.positive_roots:
                padded = (0,) + tuple(alpha)
                for sign in (1, -1):
                    vectors.append(
                        tuple(m * d + sign * a for d, a in zip(rs.delta, padded))
                    )
        for vec in vectors:
            lead = next(x for x in vec if x != 0)
            seen.add(tuple(Fraction(x, lead) for x in vec))
        assert len(seen) == count
    print("PASS criterion 2: wall counts 2 / 4 / 16 match an independent recount, exact")


def test_criterion_3_figure_slice():
    start = time.monotonic()
    rs = _rs("A2")
    n = 3
    label_specs = [
        ("C[]", ConeSpec(kind="C", n=n, K=frozenset())),
        ("C[1]", ConeSpec(kind="C", n=n, K=frozenset({1}))),
        ("C[2]", ConeSpec(kind="C", n=n, K=frozenset({2}))),
        ("C[1,2]", ConeSpec(kind="C", n=n, K=frozenset({1, 2}))),
    ]
    plane = figure_plane(rs)
    result = render_slice(rs, n, plane, label_specs)
    labeled = [cell for cell in result.cells if cell.label != "-"]
    assert sorted(cell.label for cell in labeled) == sorted(
        name for name, _ in label_specs
    )
    assert all("0" not in cell.signs for cell in labeled)
    assert len({cell.signs for cell in labeled}) == 4

    # relative-interior boundary points: zero sign exactly on the K-walls
    arr = result.arrangement
    plane_normals = nullspace(
        QQ, mat_coerce(QQ, [plane.d1, plane.d2]), len(rs.vertices)
    )
    for K in (frozenset({1}), frozenset({2}), frozenset({1, 2})):
        constraints = list(
            cone_constraints(rs, ConeSpec(kind="sigma", n=n, K=K))
        )
        for beta in plane_normals:
            rhs = sum(Fraction(b) * Fraction(q) for b, q in zip(beta, plane.base))
            constraints.append((tuple(beta), "=", rhs))
        theta, _ = generic_relint_point(
            rs, n, constraints, list(arr.hyperplanes)
        )
        assert theta is not None
        expected_zero = {
            h
            for h in arr.hyperplanes
            if all(h[i] == 0 or i in K for i in rs.vertices)
        }
        zeros = {h for h in arr.hyperplanes if theta.value(h) == 0}
        assert zeros == expected_zero
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        "PASS criterion 3: slice shows 4 labeled chambers with distinct "
        f"zero-free signs; boundary cones land on their walls, {elapsed:.2f}s < 5s"
    )


def test_criterion_4_chamber_representatives():
    cases = 0
    for label in ("A1", "A2", "A3", "A4", "D4"):
        rs = _rs(label)
        for n in (1, 2, 3):
            arr = build_arrangement(rs, n)
            for J in _all_J(rs):
                K = frozenset(rs.vertices) - J
                theta = craw_wye_theta(rs, J, n)
                assert cone_membership(theta, ConeSpec(kind="C", n=n, K=K))
                assert "0" not in sign_vector(arr, theta)
                cases += 1
    print(
        f"PASS criterion 4: explicit representatives in their chambers and "
        f"wall-free in {cases} cases, exact"
    )


def test_criterion_5_n1_chambers_coincide():
    for label in ("A1", "A2", "A3"):
        rs = _rs(label)
        arr = build_arrangement(rs, 1)
        strings = set()
        per_k = 0
        for J in _all_J(rs):
            K = frozenset(rs.vertices) - J
            cone = ConeSpec(kind="C", n=1, K=K)
            points = sample_interior_points(
                rs, 1, cone_constraints(rs, cone), count=10, seed=41
            )
            assert len(points) == 10
            per_k += 1
            for theta in points:
                strings.add("".join(sign_vector(arr, theta)))
        assert len(strings) == 1, label
    print(
        "PASS criterion 5: n=1 chambers coincide (A1-A3, 10 interior points "
        "per subset), one sign vector each, exact"
    )


def test_criterion_6_convexity():
    pairs = 0
    case_list = [
        ("A1", 1), ("A1", 2), ("A2", 2), ("A2", 3), ("A3", 2),
    ]
    for label, n in case_list:
        rs = _rs(label)
        rest = [i for i in rs.vertices if i != 0]
        subsets = [
            frozenset(v for b, v in enumerate(rest) if mask >> b & 1)
            for mask in range(1, 1 << len(rest))
        ]
        for K in subsets:
            sigma = ConeSpec(kind="sigma", n=n, K=K)
            chamber = ConeSpec(kind="C", n=n, K=K)
            s_points = sample_interior_points(
                rs, n, cone_constraints(rs, sigma), count=3, seed=61
            )
            c_points = sample_interior_points(
                rs, n, cone_constraints(rs, chamber), count=3, seed=62
            )
            for s in s_points:
                for c in c_points:
                    if pairs >= 100:
                        break
                    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 100)):
                        moved = make_theta(
                            rs,
                            s.context,
                            [a + eps * b for a, b in zip(s.entries, c.entries)],
                        )
                        assert cone_membership(moved, chamber)
                    pairs += 1
    assert pairs >= 100
    print(
        f"PASS criterion 6: boundary-plus-chamber interpolation stays in the "
        f"chamber for {pairs} pairs x 3 step sizes, exact"
    )


def test_criterion_7_cplus_stability_iff_cyclic():
    start = time.monotonic()
    corpus = build_corpus(50)
    agree = 0
    stable_count = 0
    for label, type_label, n, rep in corpus:
        theta = craw_wye_theta(rep.quiver.rs, {0}, n)
        report = stability_report(rep, theta)
        cyclic = is_framing_cyclic(rep)
        assert report.stable == cyclic, label
        agree += 1
        stable_count += report.stable
    elapsed = time.monotonic() - start
    assert agree == 50
    assert 0 < stable_count < 50  # both verdicts are represented
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: stability at the framing chamber agrees with "
        f"framing-cyclicity on 50/50 modules ({stable_count} stable), "
        f"{elapsed:.2f}s < 60s"
    )


def test_criterion_8_tangent_dimension_2n():
    checked = []
    for m in (1, 2, 3):
        rs = _rs(f"A{m}")
        for n in (1, 2, 3):
            points = [(i + 1, 0) for i in range(n)]
            rep = framed_orbit_sum(rs, points, QQ)
            assert tangent_dimension(rep) == 2 * n
            checked.append((m, n))
    assert len(checked) == 9
    print("PASS criterion 8: moduli tangent dimension equals 2n in all 9 cases, exact")


def test_criterion_9_witness_and_hn_contracts():
    corpus = build_corpus(50)
    witnesses = 0
    for label, type_label, n, rep in corpus:
        rs = rep.quiver.rs
        theta = craw_wye_theta(rs, {0}, n)
        report = stability_report(rep, theta)
        if report.witness is not None:
            witnesses += 1
            node = report.witness
            order = _vertex_order(rep)
            basis = {v: node.bases[k] for k, v in enumerate(order)}
            p = rep.field.p
            for a in rep.quiver.arrows:
                rows_h = basis[a.head]
                for row in basis[a.tail]:
                    image = list(mat_vec(rep.field, rep.matrix(a.label), row))
                    for brow in rows_h:
                        piv = next(j for j, x in enumerate(brow) if x % p)
                        c = image[piv]
                        image = [(x - c * y) % p for x, y in zip(image, brow)]
                    assert all(x % p == 0 for x in image)
            value = pair_dim(theta, node.dims)
            if not report.semistable:
                assert value < 0
            else:
                assert value == 0 and 0 < node.dims.total() < rep.dims.total()
        filtration = hn_filtration(rep, theta)
        slopes = filtration.slopes()
        assert all(a > b for a, b in zip(slopes, slopes[1:])), label
        total = DimVector(
            sum(layer.dims.r for layer in filtration.layers),
            tuple(
                sum(layer.dims.v[i] for layer in filtration.layers)
                for i in rs.vertices
            ),
        )
        assert total == rep.dims
    assert witnesses > 0
    print(
        f"PASS criterion 9: {witnesses} destabilizer witnesses re-verified, "
        "HN slopes strictly decreasing and layers sum to (1, v) on 50 modules"
    )


def test_criterion_10_corner_bounds_exhaustive():
    rs = _rs("A2")
    max_delta = max(rs.delta)

    def direct(r, v_J, n, J):
        # independent transcription of the displayed window inequalities
        v0 = v_J[0]
        lower = {j: v0 * rs.delta[j] for j in J}
        upper = {j: n * rs.delta[j] for j in J}
        inside = all(lower[j] <= v_J[j] <= upper[j] for j in J)
        if r == 0:
            return inside
        return (
            inside
            and any(v_J[j] != lower[j] for j in J)
            and any(v_J[j] != upper[j] for j in J)
        )

    scanned = 0
    for n in (1, 2):
        top = n * max_delta
        for J in _all_J(rs):
            J = tuple(sorted(J))
            for r in (0, 1):
                for values in itertools.product(range(top + 1), repeat=len(J)):
                    v_J = dict(zip(J, values))
                    assert corner_bounds_check((r, v_J), n, J, rs) == direct(
                        r, v_J, n, J
                    )
                    scanned += 1
    print(
        f"PASS criterion 10: window predicate matches the direct "
        f"transcription on {scanned} exhaustive cases, exact"
    )
