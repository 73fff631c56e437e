"""Sparse multivariate polynomials with exact coefficients.

Monomials are exponent tuples; polynomials are dicts mapping monomials to
coefficients with no zero entries: ints, or Fractions where a caller
scales by one.  Multiplication optionally truncates at a total-degree
bound, which keeps the multivariate series expansions used by the
cumulant oracle finite.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

Mono = tuple[int, ...]
Poly = dict[Mono, int | Fraction]


def zero() -> Poly:
    return {}


def const(nvars: int, value) -> Poly:
    if value == 0:
        return {}
    return {(0,) * nvars: value}


def variable(nvars: int, index: int) -> Poly:
    mono = tuple(1 if i == index else 0 for i in range(nvars))
    return {mono: 1}


def linear(nvars: int, indices: Iterable[int]) -> Poly:
    """Sum of the variables with the given indices."""
    out: Poly = {}
    for i in indices:
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        out[mono] = out.get(mono, 0) + 1
    return out


def add_scaled(p: Poly, q: Poly, scale) -> Poly:
    if scale == 0:
        return dict(p)
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c * scale
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def mul(p: Poly, q: Poly, max_degree: int | None = None) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        d1 = sum(m1)
        for m2, c2 in q.items():
            if max_degree is not None and d1 + sum(m2) > max_degree:
                continue
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def power(p: Poly, exponent: int, nvars: int, max_degree: int | None = None) -> Poly:
    out = const(nvars, 1)
    for _ in range(exponent):
        out = mul(out, p, max_degree)
    return out


def coefficient(p: Poly, mono: Mono):
    return p.get(mono, 0)
