"""Weighted counts of branched coverings of the torus.

A covering with branch profile m = (m_1, ..., m_s) is counted through the
character sum over partitions of the degree (the Burnside route, summed in
integers over central characters from Frobenius' formula in content form:
content polynomials for short cycles, rim-hook residues for long ones),
through its generating q-series, and, for small degrees, through direct
enumeration of monodromy tuples in the symmetric group.  Connected counts
come from the all-coverings series by inclusion-exclusion over set
partitions of the branch points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Iterable, Sequence

from .characters import (
    CONTENT_POLY_MAX_M,
    beta_numbers,
    content_power_sums,
    content_prefix,
    content_value,
    hook_value,
)
from .errors import DomainError, ResourceCapError
from .partitions import (
    IntPartition,
    iter_int_partitions,
    mobius_coeff,
    set_partitions_of,
)
from .qseries import QSeries, euler_series

# Largest degree the brute-force monodromy enumeration accepts, and the
# most tuples one request (all degrees up to its largest) may visit: it
# loops over all (d!)^2 pairs of permutations times every branch class but
# the last, at a few microseconds a tuple.
BRUTE_FORCE_CAP = 5
BRUTE_FORCE_WORK_CAP = 10**6

__all__ = [
    "CoverProfile",
    "CoverCountRecord",
    "cov_d",
    "cov_series",
    "cov_prime_series",
    "cov_connected_series",
    "brute_force_work",
    "check_brute_force_caps",
    "brute_force_hom_count",
    "asymptotic_ratio",
    "euler_series",
]


class CoverProfile(tuple):
    """Branch point types: one cycle length >= 2 per marked point.

    The order of entries is preserved; points are labeled.
    """

    def __new__(cls, entries: Iterable[int] = ()):
        items = tuple(int(e) for e in entries)
        for e in items:
            if e < 2:
                raise DomainError(f"profile entries must be >= 2, got {e}")
        return super().__new__(cls, items)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self)


@dataclass(frozen=True)
class CoverCountRecord:
    profile: CoverProfile
    d: int
    kind: str  # "all" | "no-unramified" | "connected"
    count: Fraction

    def csv_row(self) -> str:
        return f"{self.profile};{self.d};{self.kind};{self.count}"


def _profile(profile) -> CoverProfile:
    return profile if isinstance(profile, CoverProfile) else CoverProfile(profile)


def cov_d(profile, d: int) -> Fraction:
    """Weighted number of degree-d coverings with the given branch profile:
    the sum over partitions lam of d of the product of central characters.

    Each central character f_m(lam) is an integer, so the sum runs in
    integers.  Per lam, each distinct m is evaluated once and raised to its
    multiplicity, longest cycle first, and a zero factor ends the product.
    Cycles longer than ``CONTENT_POLY_MAX_M`` are evaluated by the residue
    sum over removable m-rim hooks (``characters.hook_value``, from the beta
    numbers of lam); shorter ones by their content polynomials
    (``characters.content_poly``), with the content power sums read from
    prefix tables over the contents -d..d.

    The empty profile counts all unramified coverings, one per partition
    of d.
    """
    profile = _profile(profile)
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if d == 0:
        return Fraction(1) if not profile else Fraction(0)
    if profile and max(profile) > d:
        return Fraction(0)
    counts = sorted(Counter(profile).items(), reverse=True)
    long = [(m, mult) for m, mult in counts if m > CONTENT_POLY_MAX_M]
    short = [(m, mult) for m, mult in counts if m <= CONTENT_POLY_MAX_M]
    prefix = content_prefix(d, short[0][0]) if short else None
    total = 0
    for lam in iter_int_partitions(d):
        term = 1
        if long:
            beta = beta_numbers(lam)
            beta_set = set(beta)
            for m, mult in long:
                term *= hook_value(m, beta, beta_set) ** mult
                if not term:
                    break
        if term and short:
            sums = content_power_sums(lam, prefix)
            for m, mult in short:
                term *= content_value(m, sums) ** mult
                if not term:
                    break
        total += term
    return Fraction(total)


def cov_series(profile, order: int) -> QSeries:
    """Generating series sum_d cov_d(profile) q^d, truncated."""
    return QSeries.from_coeffs([cov_d(profile, d) for d in range(order + 1)])


def cov_prime_series(profile, order: int) -> QSeries:
    """Series for coverings without unramified connected components:
    the raw covering series times prod (1 - q^n)."""
    profile = _profile(profile)
    if order < 0:
        raise DomainError("order must be nonnegative")
    return euler_series(order) * cov_series(profile, order)


def cov_connected_series(profile, order: int) -> QSeries:
    """Series counting connected coverings, by inclusion-exclusion over set
    partitions of the branch points applied to the no-unramified series."""
    profile = _profile(profile)
    s = len(profile)
    if s < 1:
        raise DomainError("connected counts need at least one branch point")
    prime_cache: dict[tuple[int, ...], QSeries] = {}

    def prime_for(indices: tuple[int, ...]) -> QSeries:
        key = tuple(sorted(profile[i] for i in indices))
        if key not in prime_cache:
            prime_cache[key] = cov_prime_series(key, order)
        return prime_cache[key]

    total = QSeries.zero(order)
    for alpha in set_partitions_of(range(s)):
        coeff = mobius_coeff(len(alpha))
        prod = QSeries.one(order)
        for block in alpha:
            prod = prod * prime_for(block)
        total = total + coeff * prod
    return total


# ---------------------------------------------------------------------------
# Brute-force monodromy enumeration
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    # (p o q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


def _inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _cycle_type(p: Perm) -> tuple[int, ...]:
    n = len(p)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        ln = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            ln += 1
        lengths.append(ln)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _class_elements(d: int, m: int) -> list[Perm]:
    """All permutations of {0..d-1} with one m-cycle and d-m fixed points."""
    target = (m,) + (1,) * (d - m)
    return [p for p in permutations(range(d)) if _cycle_type(p) == target]


def _is_transitive(gens: Sequence[Perm], d: int) -> bool:
    seen = [False] * d
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == d


def brute_force_work(profile, dmax: int) -> int:
    """Tuples the brute-force enumeration visits over degrees 1..dmax: at
    degree d, (d!)^2 pairs (a, b) times the size of every branch class but
    the last, whose element is solved for.  A degree below some cycle
    length visits none."""
    profile = _profile(profile)
    total = 0
    for d in range(1, dmax + 1):
        if any(m > d for m in profile):
            continue
        work = factorial(d) ** 2
        for m in profile[:-1]:
            work *= comb(d, m) * factorial(m - 1)
        total += work
    return total


def check_brute_force_caps(profile, dmax: int) -> None:
    """Raise ResourceCapError when a brute-force request for degrees
    1..dmax is over the degree cap or its predicted work is over the work
    cap; the degree is checked first, so the prediction stays cheap."""
    if dmax > BRUTE_FORCE_CAP:
        raise ResourceCapError(f"brute-force degree {dmax} exceeds cap {BRUTE_FORCE_CAP}")
    work = brute_force_work(profile, dmax)
    if work > BRUTE_FORCE_WORK_CAP:
        raise ResourceCapError(
            f"brute-force work {work} up to degree {dmax} exceeds cap {BRUTE_FORCE_WORK_CAP}"
        )


def brute_force_hom_count(profile, d: int, connected_only: bool = False) -> Fraction:
    """Count monodromy tuples (a, b, g_1, ..., g_s) with g_i in the i-th
    branch class and a b a^-1 b^-1 g_1 ... g_s = id, divided by d!.

    With ``connected_only`` the generated subgroup must act transitively.
    Enumerates a, b and all but the last branch element, solving for the
    last one; the division by d! reproduces the weighting of coverings by
    the reciprocal of their automorphism group order.  The caps are those
    of a request for degrees 1..d (``check_brute_force_caps``).
    """
    profile = _profile(profile)
    if d < 1:
        raise DomainError("degree must be positive")
    check_brute_force_caps(profile, d)
    for m in profile:
        if m > d:
            return Fraction(0)

    perms = list(permutations(range(d)))
    classes = [_class_elements(d, m) for m in profile]
    s = len(profile)
    last_type = ((profile[-1],) + (1,) * (d - profile[-1])) if s else None

    count = 0
    for a in perms:
        a_inv = _inverse(a)
        for b in perms:
            # commutator a b a^-1 b^-1
            w = _compose(_compose(a, b), _compose(a_inv, _inverse(b)))
            if s == 0:
                if w == tuple(range(d)) and (
                    not connected_only or _is_transitive((a, b), d)
                ):
                    count += 1
                continue

            def rec(i: int, prefix: Perm, chosen: tuple[Perm, ...]) -> int:
                if i == s - 1:
                    g_last = _inverse(prefix)
                    if _cycle_type(g_last) != last_type:
                        return 0
                    if connected_only and not _is_transitive(
                        (a, b) + chosen + (g_last,), d
                    ):
                        return 0
                    return 1
                acc = 0
                for g in classes[i]:
                    acc += rec(i + 1, _compose(prefix, g), chosen + (g,))
                return acc

            count += rec(0, w, ())
    return Fraction(count, factorial(d))


def asymptotic_ratio(profile, D: int) -> Fraction:
    """Finite-degree version of the normalized partial sums whose limit is
    the leading constant of connected covering counts:

        (|m|+1) * D^(-|m|-1) * sum_{d<=D} (connected count at degree d).

    Exact rational; the caller compares it against the limit evaluated at a
    high-precision rational approximation of pi.
    """
    profile = _profile(profile)
    if D < 1:
        raise DomainError("degree bound must be >= 1")
    total_weight = sum(profile)
    series = cov_connected_series(profile, D)
    partial = sum(series.coeffs[1:], Fraction(0))
    return (total_weight + 1) * Fraction(partial, 1) / Fraction(D ** (total_weight + 1))
