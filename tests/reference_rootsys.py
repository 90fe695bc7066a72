"""The earlier root-system construction, kept as a test oracle for ``rootsys``.

Positive roots come from reflecting every found root in every simple
direction, with a full Cartan-row pairing per direction, keeping the
positive images.  delta comes from the exact Fraction nullspace of the
affine Cartan matrix, scaled to delta[0] = 1.  ``test_rootsys.py``
compares both with :func:`quiverstab.rootsys.build_root_system`.
"""

from __future__ import annotations

from fractions import Fraction

from quiverstab import fieldops


def positive_roots(cartan, rank: int):
    """Close the simple roots under all simple reflections; keep positive vectors."""
    simples = [
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    ]
    found = set(simples)
    work = list(simples)
    while work:
        beta = work.pop()
        # pairing <beta, alpha_i^vee> = (C beta)_i in the simply-laced case
        cb = [sum(cartan[i][j] * beta[j] for j in range(rank)) for i in range(rank)]
        for i in range(rank):
            refl = list(beta)
            refl[i] -= cb[i]
            refl = tuple(refl)
            if all(c >= 0 for c in refl) and refl not in found:
                found.add(refl)
                work.append(refl)
    return tuple(sorted(found))


def delta(affine):
    """The kernel vector of the affine Cartan matrix with delta[0] = 1."""
    n = len(affine)
    kernel = fieldops.nullspace(fieldops.QQ, fieldops.mat_coerce(fieldops.QQ, affine), n)
    assert len(kernel) == 1, "affine Cartan matrix has wrong corank"
    vec = kernel[0]
    scaled = [Fraction(c) / vec[0] for c in vec]
    assert all(c.denominator == 1 and c > 0 for c in scaled)
    return tuple(int(c) for c in scaled)
