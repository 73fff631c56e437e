"""Irreducible characters of symmetric groups and central characters of
single-cycle classes.

The production route for the central character f_m(lam) of the m-cycle
class is Frobenius' formula in content form,

    f_m(lam) = -(1/m^2) [u^-1] u(u-1)...(u-m+1)
               * prod_{boxes} (u-c-m)(u-c+1) / ((u-c-m+1)(u-c)),

expanded at u = infinity, where a box in row i and column j has content
c = j - i.  It is evaluated in one of two ways, by cycle length:

* short cycles (m <= ``CONTENT_POLY_MAX_M``): f_m is a polynomial in
  n = |lam| and the content power sums p_j(lam) = sum of c^j over the boxes
  of lam (Kerov-Olshanski 1994, Corteel-Goupil-Schaeffer 2004), and the
  three that are used have closed forms, affine in p_1, p_2 and p_3:
  f_2 = p_1, f_3 = p_2 - n(n-1)/2 and f_4 = p_3 - (2n-3) p_1
  (``content_value``, with coefficients ``content_form``), so only p_1,
  p_2 and p_3 are ever summed, and each cycle length sums only those it
  reads (``CONTENT_POWERS``);
* long cycles: the box product telescopes row by row to a ratio over the
  beta numbers of lam, and the coefficient of 1/u is the sum of its
  residues, one per removable rim hook of length m (``hook_value``), so
  its cost does not grow with m.

Every value is an integer, so evaluation stays in integers.

Characters themselves are computed by the Murnaghan-Nakayama recursion,
implemented on first-column hook lengths (beta numbers): removing a border
strip of length m is subtracting m from one beta number while keeping them
distinct, with the sign given by the number of beta numbers jumped over.
Dimensions use the hook length formula as a fast path once only fixed
points remain.  This route is the independent oracle for both evaluations
of f_m; ``character()`` is its only entry point.  Cycle types passed
around internally drop their trailing 1-parts ("core" form), which keeps
cache keys small, and values are memoized in memory for the life of the
process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


# Longest cycle whose central character is evaluated in closed form from
# the content power sums; longer cycles use the residue sum ``hook_value``,
# which costs about as much per partition at m = 4 and less for longer
# cycles.
CONTENT_POLY_MAX_M = 4


def content_prefix(d: int, powers) -> list[tuple[int, list[int], list[int]]]:
    """Tables for the content power sums p_k, k in ``powers`` (each >= 1),
    of partitions of at most d boxes.  For each k, ``table[x + d]`` is the
    sum of c^k over -d <= c < x, and ``starts[l]`` is the sum of
    ``table[d - i]`` over the rows i < l, the part every row's prefix
    difference subtracts."""
    tables = []
    for k in powers:
        table = [0]
        for c in range(-d, d):
            table.append(table[-1] + c**k)
        starts = [0]
        for i in range(d):
            starts.append(starts[-1] + table[d - i])
        tables.append((k, table, starts))
    return tables


def content_power_sums(
    lam, prefix: list[tuple[int, list[int], list[int]]]
) -> dict[int, int]:
    """p_k(lam) = sum of c^k over the boxes of lam, keyed by k, for each k
    with tables in ``prefix`` (from ``content_prefix(d, powers)`` with
    d >= |lam|).  Row i (from 0) covers the contents -i .. lam_i - i - 1,
    so it adds ``table[d + lam_i - i] - table[d - i]``."""
    d = len(prefix[0][2]) - 1
    ends = [d + part - i for i, part in enumerate(lam)]
    ell = len(ends)
    return {k: sum(map(table.__getitem__, ends)) - starts[ell] for k, table, starts in prefix}


def content_value(m: int, n: int, sums) -> int:
    """f_m, for 2 <= m <= ``CONTENT_POLY_MAX_M``, at a partition of n with
    content power sums ``sums`` (indexed by k, holding at least the
    ``CONTENT_POWERS[m]``): f_2 = p_1, f_3 = p_2 - n(n-1)/2 and
    f_4 = p_3 - (2n-3) p_1."""
    if m == 2:
        return sums[1]
    if m == 3:
        return sums[2] - n * (n - 1) // 2
    if m == 4:
        return sums[3] - (2 * n - 3) * sums[1]
    raise DomainError(
        f"closed forms cover cycle lengths 2..{CONTENT_POLY_MAX_M}, got {m}"
    )


@lru_cache(maxsize=None)
def content_form(m: int, n: int) -> tuple[int, int, int, int]:
    """The closed form of f_m (``content_value``) at the partitions of n as
    the coefficients (a_0, a_1, a_2, a_3) of
    f_m = a_0 + a_1 p_1 + a_2 p_2 + a_3 p_3.  Each closed form is affine in
    the power sums, so they are its values at p = 0 and, less a_0, at each
    unit vector; memoized, so a Burnside row reads them at no cost."""
    zero = dict.fromkeys((1, 2, 3), 0)
    a0 = content_value(m, n, zero)
    return (a0,) + tuple(content_value(m, n, {**zero, k: 1}) - a0 for k in (1, 2, 3))


# The content power sums p_k each closed form reads, its nonzero linear
# coefficients (2n - 3 is odd, so none vanishes at some n); p_0 = n = |lam|
# is known and never summed.
CONTENT_POWERS = {
    m: tuple(k for k in (1, 2, 3) if content_form(m, 0)[k])
    for m in range(2, CONTENT_POLY_MAX_M + 1)
}


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
    with m, which makes this the route for long cycles.
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
    lam: (class size) * character / dimension.  Cycles of length at most
    ``CONTENT_POLY_MAX_M`` are evaluated by their closed forms
    (``content_value``), longer ones by ``hook_value``, as the partition
    sweep of ``cov_d`` does (its moment route sums the same closed forms
    over all partitions at once).  Zero when m exceeds |lam|."""
    if m < 2:
        raise DomainError(f"cycle length must be >= 2, got {m}")
    lam = IntPartition(lam)
    d = lam.size
    if m > d:
        return Fraction(0)
    if m > CONTENT_POLY_MAX_M:
        beta = beta_numbers(lam)
        return Fraction(hook_value(m, beta, set(beta)))
    sums = content_power_sums(lam, content_prefix(d, CONTENT_POWERS[m]))
    return Fraction(content_value(m, d, sums))
