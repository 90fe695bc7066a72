"""Fraction pairings as the stability code computed them before its integer kernel.

Every pairing is a sum of Fraction products over the entries, and the
framing entry is rebuilt from the context.  ``test_sign_kernel_oracle.py``
compares these with the integer numerators of :mod:`quiverstab.stability`
and :func:`quiverstab.walls.sign_vector`.
"""

from __future__ import annotations

from fractions import Fraction

from quiverstab.stability import cone_constraints, holds


def value(theta, coeffs) -> Fraction:
    return sum((Fraction(c) * e for c, e in zip(coeffs, theta.entries)), Fraction(0))


def theta_inf(theta) -> Fraction:
    return -value(theta, theta.context)


def pair_dim(theta, d) -> Fraction:
    return d.r * theta_inf(theta) + value(theta, d.v)


def sign_vector(arr, theta):
    out = []
    for h in arr.hyperplanes:
        val = value(theta, h.coeffs)
        out.append("+" if val > 0 else "-" if val < 0 else "0")
    return tuple(out)


def cone_membership(theta, cone, closed=False) -> bool:
    return all(
        holds(value(theta, coeffs), rel)
        for coeffs, rel in cone_constraints(theta.rs, cone, closed=closed)
    )
