"""Weighted counts of branched coverings of the torus.

A covering with branch profile m = (m_1, ..., m_s) is counted through the
character sum over partitions of the degree (the Burnside route, summed in
integers over central characters from Frobenius' formula in content form:
closed forms in content power sums for short cycles, rim-hook residues for
long ones), through its generating q-series, and, for small degrees,
through direct enumeration of monodromy tuples in the symmetric group.
Connected counts come from the all-coverings series by inclusion-exclusion
over set partitions of the branch points; one sweep over the partitions of
each degree serves every sub-profile those set partitions need, and its
totals are memoized for the life of the process, so no degree is swept
twice for the same sub-profile.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, inf, prod
from typing import Iterable, Iterator, Sequence

from .characters import (
    CONTENT_POLY_MAX_M,
    CONTENT_POWERS,
    beta_numbers,
    content_power_sums,
    content_prefix,
    content_value,
    hook_value,
)
from .errors import DomainError, Record, ResourceCapError
from .partitions import (
    IntPartition,
    check_partition_work,
    iter_int_partitions,
    mobius_coeff,
    partition_counts,
    set_partitions_of,
)
from .qseries import QSeries, euler_series

# Largest degree the brute-force monodromy enumeration accepts, and the
# most tuples one request (all degrees up to its largest) may visit: it
# loops over all (d!)^2 pairs of permutations times every branch class but
# the last, at a few microseconds a tuple.
BRUTE_FORCE_CAP = 5
BRUTE_FORCE_WORK_CAP = 10**6
# Most partitions the Burnside rows of one request (all degrees up to its
# largest) may visit, at a few microseconds each: degrees up to 48.  And
# the most (partition, sub-profile) products those rows may sum, at about a
# microsecond each: every profile with at most 10 sub-profiles up to
# degree 48, while 2,3,...,21 (2^k sub-profiles for k distinct cycles) is
# refused from degree 15 on.
BURNSIDE_WORK_CAP = 10**6
BURNSIDE_PRODUCT_CAP = 10**7

__all__ = [
    "CoverProfile",
    "CoverCountRecord",
    "cov_d",
    "cov_series",
    "cov_prime_series",
    "cov_connected_series",
    "burnside_work",
    "check_burnside_cap",
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


class CoverCountRecord(Record):
    # CoverProfile, int, "all" | "no-unramified" | "connected", Fraction
    __slots__ = ("profile", "d", "kind", "count")

    def csv_row(self) -> str:
        return f"{self.profile};{self.d};{self.kind};{self.count}"


def _profile(profile) -> CoverProfile:
    return profile if isinstance(profile, CoverProfile) else CoverProfile(profile)


# Burnside totals by (sub-profile sorted longest cycle first, degree), for
# the life of the process.  A sweep stores every sub-multiset of the
# profile it was asked for whose cycles fit in the degree, so whenever a
# profile is here, every sub-profile that can sum to nonzero is too.
_burnside_totals: dict[tuple[tuple[int, ...], int], int] = {}


def _burnside_sums(profile: Sequence[int], d: int) -> int:
    """The sum over partitions lam of d of the product of the central
    characters f_m(lam) over the entries m of the profile.

    Totals are memoized in ``_burnside_totals``; the partitions of d are
    swept only when the profile's cycles no longer than d are missing
    (``_sweep``), and that sweep serves every sorted sub-multiset of them.
    A cycle longer than d makes the sum 0, and the empty profile counts
    the partitions of d.
    """
    key = tuple(sorted(profile, reverse=True))
    if (key, d) not in _burnside_totals:
        fit = tuple(m for m in key if m <= d)
        if (fit, d) not in _burnside_totals:
            _check_sweep_cap(fit, d)
            _sweep(fit, d)
        if fit != key:
            _burnside_totals[key, d] = 0
    return _burnside_totals[key, d]


def _check_sweep_cap(key: tuple[int, ...], d: int) -> None:
    """The Burnside caps for the sweep of degree d alone: its p(d)
    partitions, and their products with every sub-profile of ``key``."""
    counts = partition_counts(d, BURNSIDE_WORK_CAP)
    if len(counts) <= d or counts[d] > BURNSIDE_WORK_CAP:
        raise ResourceCapError(
            f"Burnside work at degree {d} exceeds cap {BURNSIDE_WORK_CAP} partitions")
    _check_products(counts[d], key, d)


def _sweep(key: tuple[int, ...], d: int) -> None:
    """Store in ``_burnside_totals`` the Burnside sum at degree d of every
    sorted sub-multiset of ``key`` (cycles no longer than d, longest
    first): prod (c + 1) of them for the multiplicities c.

    At each lam the beta numbers and the content power sums the short
    cycles read are computed once, and each distinct cycle length once:
    cycles longer than ``CONTENT_POLY_MAX_M`` by the residue sum over
    removable m-rim hooks (``characters.hook_value``), shorter ones by
    their closed forms in the content power sums
    (``characters.content_value``), which are read from prefix tables over
    the contents -d..d.  Each sub-multiset then costs one integer
    multiplication: its value with the last cycle dropped times the value
    of that cycle.
    """
    counts = sorted(Counter(key).items(), reverse=True)
    # Each sub-multiset comes after the one with its last cycle dropped.
    subs = [()]
    for m, c in counts:
        subs = [sub + (m,) * k for sub in subs for k in range(c + 1)]
    slot = {sub: i for i, sub in enumerate(subs)}
    plan = [(i, slot[sub[:-1]], sub[-1]) for i, sub in enumerate(subs) if sub]
    lengths = [m for m, _ in counts]
    long = [m for m in lengths if m > CONTENT_POLY_MAX_M]
    short = [m for m in lengths if m <= CONTENT_POLY_MAX_M]
    prefix = content_prefix(d, sorted({k for m in short for k in CONTENT_POWERS[m]}))
    f = [0] * (key[0] + 1 if key else 0)
    values = [1] * len(subs)
    totals = [0] * len(subs)
    for lam in iter_int_partitions(d):
        totals[0] += 1
        if long:
            beta = beta_numbers(lam)
            beta_set = set(beta)
            for m in long:
                f[m] = hook_value(m, beta, beta_set)
        if short:
            sums = content_power_sums(lam, prefix)
            for m in short:
                f[m] = content_value(m, d, sums)
        for i, parent, m in plan:
            value = values[parent] * f[m]
            values[i] = value
            totals[i] += value
    for sub, total in zip(subs, totals):
        _burnside_totals[sub, d] = total


def cov_d(profile, d: int) -> Fraction:
    """Weighted number of degree-d coverings with the given branch profile:
    the sum over partitions lam of d of the product of central characters,
    in integers (``_burnside_sums``).  The totals of the profile and of all
    its sub-profiles at d are memoized, so a repeat of the row, or a
    connected series or ratio of the profile through d, sweeps no
    partitions again.  A cold row sums all prod (c + 1) sub-profiles, for
    the multiplicities c of its cycles no longer than d: it raises
    ResourceCapError before it sweeps when its p(d) partitions or their
    products with the sub-profiles are over the Burnside caps.

    The empty profile counts all unramified coverings, one per partition
    of d.
    """
    profile = _profile(profile)
    if d < 0:
        raise DomainError("degree must be nonnegative")
    return Fraction(_burnside_sums(profile, d))


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
    partitions of the branch points applied to the no-unramified series.

    Every block of those set partitions needs the series of its sorted
    sub-profile; all of them come from one Burnside sweep of the profile
    per degree, and from none at the degrees where the memo already holds
    the profile.  The Burnside caps for the profile and degrees up to
    ``order`` are checked first.
    """
    profile = _profile(profile)
    s = len(profile)
    if s < 1:
        raise DomainError("connected counts need at least one branch point")
    if order < 0:
        raise DomainError("order must be nonnegative")
    check_burnside_cap(order, profile)
    alphas = [
        [tuple(sorted(profile[i] for i in block)) for block in alpha]
        for alpha in set_partitions_of(range(s))
    ]
    keys = sorted({key for blocks in alphas for key in blocks})
    rows = []
    for d in range(order + 1):
        _burnside_sums(profile, d)  # the one sweep that stores every block
        rows.append([_burnside_sums(key, d) for key in keys])
    euler = euler_series(order)
    prime = {
        key: euler * QSeries.from_coeffs([row[j] for row in rows])
        for j, key in enumerate(keys)
    }
    total = QSeries.zero(order)
    for blocks in alphas:
        prod = QSeries.one(order)
        for key in blocks:
            prod = prod * prime[key]
        total = total + mobius_coeff(len(blocks)) * prod
    return total


def burnside_work(dmax: int) -> int:
    """Partitions the Burnside sums for degrees 0..dmax visit: the sum of
    p(d) over d <= dmax.  One sweep per degree serves every sub-profile of
    a profile, so the count does not depend on the profile; the products
    each partition costs do (``check_burnside_cap``)."""
    return sum(partition_counts(dmax, inf)[: dmax + 1])


def check_burnside_cap(dmax: int, profile: Iterable[int] = ()) -> None:
    """Raise ResourceCapError when the Burnside rows of ``profile`` for
    degrees up to dmax would visit more than ``BURNSIDE_WORK_CAP``
    partitions, or sum more than ``BURNSIDE_PRODUCT_CAP`` (partition,
    sub-profile) products: a sweep sums prod (c + 1) sub-profiles, for the
    multiplicities c of the cycles no longer than its degree.  Cheap for
    any dmax and profile (``partitions.check_partition_work``)."""
    _check_products(check_partition_work(dmax, BURNSIDE_WORK_CAP, "Burnside"), profile, dmax)


def _check_products(partitions: int, profile: Iterable[int], dmax: int) -> None:
    subs = prod(c + 1 for c in Counter(m for m in profile if m <= dmax).values())
    if partitions * subs > BURNSIDE_PRODUCT_CAP:
        raise ResourceCapError(
            f"Burnside work up to degree {dmax} exceeds cap {BURNSIDE_PRODUCT_CAP} "
            f"products ({partitions} partitions times {subs} sub-profiles)"
        )


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
