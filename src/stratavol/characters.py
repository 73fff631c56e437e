"""Irreducible characters of symmetric groups.

Characters are computed by the Murnaghan-Nakayama recursion, implemented on
first-column hook lengths (beta numbers): removing a border strip of length
m is subtracting m from one beta number while keeping them distinct, with
the sign given by the number of beta numbers jumped over.  Dimensions use
the hook length formula as a fast path once only fixed points remain.

Cycle types passed around internally drop their trailing 1-parts ("core"
form), which keeps cache keys small during large Burnside sweeps.  Values
are memoized in memory for the life of the process.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

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


def m_cycle_class_size(d: int, m: int) -> int:
    """Number of permutations of d points with one m-cycle and d-m fixed
    points: d!/((d-m)! m).  Zero when the class is empty (m > d)."""
    if m < 2:
        raise DomainError(f"cycle length must be >= 2, got {m}")
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    if m > d:
        return 0
    return factorial(d) // (factorial(d - m) * m)


def conjugacy_class_size(rho) -> int:
    """Size of the conjugacy class with cycle type rho: d!/prod(k^c_k c_k!)."""
    rho = IntPartition(rho)
    z = 1
    for part, count in rho.multiplicities().items():
        z *= part**count * factorial(count)
    return factorial(rho.size) // z


def central_char_f(m: int, lam) -> Fraction:
    """Scalar by which the class sum of an m-cycle class acts on the irrep
    lam: (class size) * character / dimension.  Zero when m exceeds |lam|."""
    if m < 2:
        raise DomainError(f"cycle length must be >= 2, got {m}")
    lam = IntPartition(lam)
    d = lam.size
    if m > d:
        return Fraction(0)
    size = factorial(d) // (factorial(d - m) * m)
    chi = _char_core(tuple(lam), (m,))
    if chi == 0:
        return Fraction(0)
    return Fraction(size * chi, dimension(lam))
