"""Irreducible characters of symmetric groups and central characters of
single-cycle classes.

The production route for the central character f_m(lam) of the m-cycle
class is Frobenius' formula in content form,

    f_m(lam) = -(1/m^2) [u^-1] u(u-1)...(u-m+1)
               * prod_{boxes} (u-c-m)(u-c+1) / ((u-c-m+1)(u-c)),

expanded at u = infinity, where a box in row i and column j has content
c = j - i.  At one partition it has one evaluation for every m: the box
product telescopes row by row to a ratio over the beta numbers of lam,
and the coefficient of 1/u is the sum of its residues, one per removable
rim hook of length m (``hook_value``), so its cost does not grow with m.
Every value is an integer, so evaluation stays in integers.

For m <= ``CONTENT_POLY_MAX_M`` the same f_m is also a closed form, affine
in n = |lam| and the content power sums p_1, p_2, p_3 (``content_form``).
That form is not evaluated at a partition: ``coverings`` sums it over all
partitions of a degree at once, from their content moments.

Characters themselves are computed by the Murnaghan-Nakayama recursion,
implemented on first-column hook lengths (beta numbers): removing a border
strip of length m is subtracting m from one beta number while keeping them
distinct, with the sign given by the number of beta numbers jumped over.
Dimensions use the hook length formula as a fast path once only fixed
points remain.  This route is the independent oracle for both forms of
f_m; ``character()`` is its only entry point.  Cycle types passed
around internally drop their trailing 1-parts ("core" form), which keeps
cache keys small, and values are memoized in memory for the life of the
process.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .errors import DomainError
from .partitions import IntPartition


class CharTableCache:
    """Process-wide character values keyed by (irrep label, cycle-type
    core).  Values are deterministic, so concurrent duplicate inserts are
    harmless."""

    def __init__(self) -> None:
        self.values: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def get(self, key):
        return self.values.get(key)

    def put(self, key, value: int) -> None:
        self.values[key] = value

    def __len__(self) -> int:
        return len(self.values)


_cache = CharTableCache()
_dim_cache: dict[tuple[int, ...], int] = {}


def character_cache() -> CharTableCache:
    """The process-wide character cache."""
    return _cache


def dimension(lam: IntPartition | tuple[int, ...]) -> int:
    """Dimension of the irreducible representation labeled by lam, by the
    hook length formula."""
    lam = tuple(lam)
    cached = _dim_cache.get(lam)
    if cached is not None:
        return cached
    d = sum(lam)
    if d == 0:
        return 1
    ncols = lam[0]
    col_heights = [0] * ncols
    for li in lam:
        for j in range(li):
            col_heights[j] += 1
    hooks = 1
    for i, li in enumerate(lam):
        for j in range(li):
            hooks *= li - j + col_heights[j] - i - 1
    value = factorial(d) // hooks
    _dim_cache[lam] = value
    return value


def _char_core(lam: tuple[int, ...], core: tuple[int, ...]) -> int:
    """Character of lam on the cycle type (core parts, then all 1s)."""
    if not core:
        return dimension(lam)
    key = (lam, core)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    m = core[0]
    rest = core[1:]
    k = len(lam)
    beta = [lam[i] + k - 1 - i for i in range(k)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - m
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        nbeta = sorted((x for x in beta if x != b), reverse=True)
        nbeta.append(nb)
        nbeta.sort(reverse=True)
        kk = len(nbeta)
        nlam = tuple(
            p for p in (nbeta[i] - (kk - 1 - i) for i in range(kk)) if p > 0
        )
        sub = _char_core(nlam, rest)
        total += sub if height % 2 == 0 else -sub
    _cache.put(key, total)
    return total


def character(lam, rho) -> int:
    """Exact integer character value of the irrep lam on cycle type rho."""
    lam = IntPartition(lam)
    rho = IntPartition(rho)
    if lam.size != rho.size:
        raise DomainError(f"size mismatch: |lam|={lam.size} but |rho|={rho.size}")
    core = tuple(p for p in rho if p >= 2)
    return _char_core(tuple(lam), core)


def conjugacy_class_size(rho) -> int:
    """Size of the conjugacy class with cycle type rho: d!/prod(k^c_k c_k!)."""
    rho = IntPartition(rho)
    z = 1
    for part, count in rho.multiplicities().items():
        z *= part**count * factorial(count)
    return factorial(rho.size) // z


# Longest cycle whose central character is linear in the content power
# sums p_1, p_2, p_3 (``content_form``), and so the limit of the content
# moment route of ``coverings``; f_5 is not linear in p_1..p_4.
CONTENT_POLY_MAX_M = 4


def content_form(m: int, n: int) -> tuple[int, int, int, int]:
    """The closed form of f_m, 2 <= m <= ``CONTENT_POLY_MAX_M``, at the
    partitions of n as the coefficients (a_0, a_1, a_2, a_3) of
    f_m = a_0 + a_1 p_1 + a_2 p_2 + a_3 p_3, where p_k is the sum of c^k
    over the box contents c: f_2 = p_1, f_3 = p_2 - n(n-1)/2 and
    f_4 = p_3 - (2n-3) p_1 (Kerov-Olshanski 1994, Corteel-Goupil-Schaeffer
    2004).  Only the content moment route of ``coverings`` reads them."""
    if m == 2:
        return 0, 1, 0, 0
    if m == 3:
        return -(n * (n - 1) // 2), 0, 1, 0
    if m == 4:
        return 0, 3 - 2 * n, 0, 1
    raise DomainError(
        f"closed forms cover cycle lengths 2..{CONTENT_POLY_MAX_M}, got {m}"
    )


def beta_numbers(lam) -> list[int]:
    """First-column hook lengths lam_i + l - 1 - i of lam (l = its length),
    strictly decreasing."""
    top = len(lam) - 1
    return [part + top - i for i, part in enumerate(lam)]


def hook_value(m: int, beta: list[int], beta_set: set[int]) -> int:
    """f_m at the partition with beta numbers ``beta`` (``beta_set`` is the
    same numbers as a set), by the residues of Frobenius' formula.

    Row r of lam (from 1, with l rows) has contents 1-r .. lam_r-r, so its
    boxes telescope to (u+r)(u-s_r-m) / ((u-s_r)(u+r-m)) with
    s_r = lam_r - r.  The factors (u+r)/(u+r-m) over all rows turn
    u(u-1)...(u-m+1) into w(w-1)...(w-m+1) with w = u + l, and s_r + l is
    the beta number b_r, so the product is
    w(w-1)...(w-m+1) prod_r (w-b_r-m)/(w-b_r).  Its coefficient of 1/w at
    infinity is the sum of the residues at the poles w = b_i, so

        f_m = (1/m) sum_i b_i(b_i-1)...(b_i-m+1)
                        * prod_{j != i} (b_i-m-b_j) / (b_i-b_j).

    A term is nonzero only when b_i - m is a free nonnegative position,
    that is, when lam has a removable rim hook of length m at row i, so
    the cost is one pass over beta plus one per such hook: it does not grow
    with m.
    """
    num, den = 0, 1
    for b in beta:
        nb = b - m
        if nb < 0 or nb in beta_set:
            continue
        tn, td = perm(b, m), 1
        for x in beta:
            if x != b:
                tn *= nb - x
                td *= b - x
        num = num * td + tn * den
        den *= td
    return num // (den * m)


def central_char_f(m: int, lam) -> Fraction:
    """Scalar by which the class sum of an m-cycle class acts on the irrep
    lam: (class size) * character / dimension, by the rim-hook residues
    (``hook_value``), as the partition sweep of ``cov_d`` evaluates it.
    Zero when m exceeds |lam|."""
    if m < 2:
        raise DomainError(f"cycle length must be >= 2, got {m}")
    beta = beta_numbers(IntPartition(lam))
    return Fraction(hook_value(m, beta, set(beta)))
