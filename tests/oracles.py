"""Independent reference computations used as test oracles.

Everything here is deliberately implemented by a different route than the
library code it checks: partition counts through the pentagonal recurrence,
Bell numbers through the Bell triangle, Stirling numbers through their
recurrence, Bernoulli numbers through the Akiyama-Tanigawa transform, set
partitions through recursive insertion, complementary set partitions through
a common-coarsening test instead of the library's tree growth, integer
partitions through largest-part-first recursion, elementary cumulants
and planted-tree sums through one term per set partition of the key
instead of the library's tree sum over sub-multisets, power-sum q-averages through a product of rational
``p_eval`` values per partition instead of the library's integer sum,
connected covering series through inclusion-exclusion over set partitions
of the branch points instead of the library's exponential formula over
sub-multiplicity vectors, the top-weight f_k expansion through a Fraction
division per multiplicity factorial over partitions filtered by weight
instead of the library's integer product over partitions of weight k + 1
generated directly, brute-force monodromy counts pair by pair instead of
the library's tally of pairs by commutator and orbits, and truncated
series products over every coefficient pair instead of the library's
product that skips the zeros of one factor.

It also holds the small helpers that only the tests use: the size of a
single-cycle class, the conjugate partition, the partition weight, divisor
power sums, the inverse of a q-series and a power-sum expansion from a dict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from stratavol.coverings import cov_prime_series
from stratavol.errors import DomainError
from stratavol.exact_arith import PiScalar, frak_z_over_pi
from stratavol.partitions import (
    IntPartition,
    SetPartition,
    meet,
    mobius_coeff,
    set_partitions_of,
)
from stratavol.qseries import QSeries, euler_series
from stratavol.shifted_symmetric import PExpansion, p_eval
from stratavol.verify import _wick_by_enumeration


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    memo = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * memo[m - g1]
            if g2 <= m:
                total += sign * memo[m - g2]
            k += 1
        memo[m] = total
    return memo[n]


def bell_number(n: int) -> int:
    """Bell(n) by the Bell triangle: each row starts with the previous
    row's last entry, and Bell(n) is the last entry of the n-th row."""
    if n < 1:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) by the recurrence
    S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa algorithm, adjusted to B_1 = -1/2."""
    a = [Fraction(0)] * (n + 1)
    b = Fraction(0)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        b = a[0]
    # Akiyama-Tanigawa yields the B_1 = +1/2 convention.
    return -b if n == 1 else b


def set_partitions_by_insertion(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..n}, built by inserting elements one at a
    time, returned in canonical form (blocks sorted by minimum)."""
    parts: list[list[list[int]]] = [[[1]]] if n >= 1 else [[]]
    for x in range(2, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                q = [list(b) for b in p]
                q[i].append(x)
                nxt.append(q)
            nxt.append([list(b) for b in p] + [[x]])
        parts = nxt
    out = []
    for p in parts:
        out.append(tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0])))
    return out


def is_complementary(a: SetPartition, rho: SetPartition) -> bool:
    """True when a is transversal to rho and their common coarsening is the
    one-block partition: a glues all of rho's blocks with the minimum
    number of merges."""
    return meet(a, rho).length == 1 and a.length + rho.length - 1 == a.n


def _bounded_compositions(total: int, bounds):
    """Compositions of ``total`` into len(bounds) parts with 0 <= part_k <=
    bounds[k]."""
    if total < 0:
        return
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for v in range(min(bounds[0], total) + 1):
        for rest in _bounded_compositions(total - v, bounds[1:]):
            yield (v,) + rest


def cumulant_by_set_partitions(key) -> Fraction:
    """The elementary cumulant of ``key`` divided by its pi power, one term
    per set partition alpha of the key's indices: the one-block term
    |m|! frak_z(|m| - n + 2), and for l >= 2 blocks the sign (-1)^(l-1)
    times (l-2)! prod_B |m_B|! frak_z(|m_B| - #B - d_B + 1) / d_B! summed
    over compositions d of l - 2.  Each d_B has the parity that makes the
    frak_z argument even, so only those compositions are enumerated."""
    n = len(key)
    total_size = sum(key)
    result = Fraction(0)
    for alpha in set_partitions_by_insertion(n):
        ell = len(alpha)
        msums = [sum(key[i - 1] for i in block) for block in alpha]
        bsizes = [len(block) for block in alpha]
        if ell == 1:
            result += factorial(total_size) * frak_z_over_pi(total_size - n + 2)
            continue
        parities = [(1 + msums[k] - bsizes[k]) % 2 for k in range(ell)]
        excess = ell - 2 - sum(parities)
        if excess < 0 or excess % 2 == 1:
            continue
        e_bounds = [(msums[k] - bsizes[k] + 1 - parities[k]) // 2 for k in range(ell)]
        if any(b < 0 for b in e_bounds):
            continue
        prefactor = (1 if ell % 2 == 1 else -1) * factorial(ell - 2)
        for msum in msums:
            prefactor *= factorial(msum)
        for e in _bounded_compositions(excess // 2, e_bounds):
            term = Fraction(prefactor)
            for k in range(ell):
                d_k = parities[k] + 2 * e[k]
                term *= frak_z_over_pi(msums[k] - bsizes[k] - d_k + 1) / factorial(d_k)
            result += term
    return result


def planted_by_set_partitions(u) -> Fraction:
    """The planted-tree sum of u (``cumulants._planted``, divided by Q^#u),
    one term per set partition alpha of u's indices and degree sequence: a
    tree on alpha's l blocks rooted at one block, which has one edge more,
    is a tree on l + 1 vertices in which the added vertex is a leaf, so by
    Cayley's count (l - 1)! / prod (d_B - 1)! of them give the blocks the
    degrees d_B >= 1, and each weighs prod_B -|u_B|! frak_z(|u_B| - #B +
    2 - d_B)."""
    result = Fraction(0)
    for alpha in set_partitions_by_insertion(len(u)):
        ell = len(alpha)
        blocks = [(sum(u[i - 1] for i in block), len(block)) for block in alpha]
        for extra in _bounded_compositions(ell - 1, [ell - 1] * ell):
            term = Fraction(factorial(ell - 1))
            for (size, parts), e in zip(blocks, extra):
                term *= -factorial(size) * frak_z_over_pi(size - parts + 1 - e) / factorial(e)
            result += term
    return result


def sigma(k: int, n: int) -> int:
    """Sum of the k-th powers of the divisors of n."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def partitions_by_recursion(d: int, max_part: int | None = None):
    """Partitions of d as descending tuples, in descending lexicographic
    order, by choosing the largest part first and recursing on the rest."""
    top = d if max_part is None else min(d, max_part)
    if d == 0:
        yield ()
        return
    for first in range(top, 0, -1):
        for rest in partitions_by_recursion(d - first, first):
            yield (first,) + rest


def q_average_by_p_eval(mu, order: int) -> QSeries:
    """The q-average of prod_i p_{mu_i}: for each degree, the sum over its
    partitions of the product of the rational values ``p_eval(k, lam)``,
    times the Euler product."""
    raw = []
    for d in range(order + 1):
        acc = Fraction(0)
        for lam in partitions_by_recursion(d):
            term = Fraction(1)
            for k in mu:
                term *= p_eval(k, lam)
            acc += term
        raw.append(acc)
    return euler_series(order) * QSeries(raw)


def wick_by_complementary_trees(groups) -> PiScalar:
    """The Wick sum of ``groups`` (a sequence of partitions whose parts are
    the elements), one product of block cumulants per set partition
    complementary to the grouping, as ``verify`` computes it
    (``_wick_by_enumeration``), with its pi power attached."""
    n = sum(len(g) for g in groups)
    return PiScalar(
        _wick_by_enumeration(groups), sum(map(sum, groups)) - n + 2 * (n - len(groups) + 1)
    )


def connected_by_set_partitions(profile, order: int) -> QSeries:
    """The connected covering series of ``profile`` by inclusion-exclusion
    over the set partitions alpha of its branch points: the sum of
    (-1)^(l-1) (l-1)! times the product of the no-unramified series of
    the blocks, as ``QSeries`` over rationals."""
    profile = tuple(profile)
    prime: dict[tuple[int, ...], QSeries] = {}
    total = QSeries.zero(order)
    for alpha in set_partitions_of(range(len(profile))):
        term = QSeries.one(order)
        for block in alpha:
            key = tuple(sorted(profile[i] for i in block))
            if key not in prime:
                prime[key] = cov_prime_series(key, order)
            term = term * prime[key]
        total = total + mobius_coeff(len(alpha)) * term
    return total


def f_top_expansion_by_division(k: int) -> PExpansion:
    """The top-weight part of f_k term by term: for each partition of
    size d and length k + 1 - d (listed by ``partitions_by_recursion``),
    (-k)^(length - 1) / k divided by each multiplicity factorial in turn,
    sorted as ``expansion_from_dict`` sorts."""
    terms = {}
    for d in range(k + 1):
        for parts in partitions_by_recursion(d):
            if d + len(parts) == k + 1:
                lam = IntPartition(parts)
                coeff = Fraction((-k) ** (lam.length - 1), k)
                for mult in lam.multiplicities().values():
                    coeff /= factorial(mult)
                terms[lam] = coeff
    return expansion_from_dict(terms)


def brute_force_per_pair(profile, d: int) -> tuple[Fraction, Fraction]:
    """The monodromy tuples (a, b, g_1, ..., g_s) with g_i an m_i-cycle and
    a b a^-1 b^-1 g_1 ... g_s = id, divided by d!, counted for every pair
    (a, b) and every choice of g_1, ..., g_(s-1) in turn, the last element
    solved for: all of them, and those whose orbit of 0 is everything."""
    def compose(p, q):
        return tuple(p[x] for x in q)

    def inverse(p):
        out = [0] * len(p)
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    def cycle_type(p):
        lengths, seen = [], set()
        for start in range(len(p)):
            x, n = start, 0
            while x not in seen:
                seen.add(x)
                x, n = p[x], n + 1
            if n:
                lengths.append(n)
        return sorted(lengths, reverse=True)

    def transitive(gens):
        orbit = {0}
        grown = True
        while grown:
            new = {g[x] for g in gens for x in orbit} - orbit
            orbit |= new
            grown = bool(new)
        return len(orbit) == d

    perms = list(permutations(range(d)))
    classes = [[p for p in perms if cycle_type(p) == [m] + [1] * (d - m)] for m in profile]
    if any(not c for c in classes):
        return Fraction(0), Fraction(0)
    counts = [0, 0]  # all tuples, transitive tuples

    def rec(i, prefix, gens):
        if i == len(profile) - 1:
            last = inverse(prefix)
            if cycle_type(last) == [profile[-1]] + [1] * (d - profile[-1]):
                counts[0] += 1
                counts[1] += transitive(gens + (last,))
            return
        for g in classes[i]:
            rec(i + 1, compose(prefix, g), gens + (g,))

    for a in perms:
        for b in perms:
            w = compose(compose(a, b), compose(inverse(a), inverse(b)))
            if profile:
                rec(0, w, (a, b))
            elif w == tuple(range(d)):
                counts[0] += 1
                counts[1] += transitive((a, b))
    return Fraction(counts[0], factorial(d)), Fraction(counts[1], factorial(d))


def m_cycle_class_size(d: int, m: int) -> int:
    """Number of permutations of d points with one m-cycle and d-m fixed
    points: d!/((d-m)! m).  Zero when the class is empty (m > d)."""
    if m > d:
        return 0
    return factorial(d) // (factorial(d - m) * m)


def conjugate(lam) -> IntPartition:
    """The conjugate partition: its parts are the column lengths of lam."""
    return IntPartition(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def weight(mu) -> int:
    """size + length; zero for the empty partition."""
    return sum(mu) + len(mu)


def product_by_double_loop(a: QSeries, b: QSeries) -> QSeries:
    """The truncated product of two series, one coefficient pair at a
    time over both factors in full, to the smaller order."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return QSeries(out)


def series_inverse(series: QSeries) -> QSeries:
    """Multiplicative inverse of a series with a unit constant term."""
    c = series.coeffs
    if c[0] == 0:
        raise DomainError("series with zero constant term has no inverse")
    inv = [1 / c[0]]
    for k in range(1, series.order + 1):
        inv.append(-sum((c[i] * inv[k - i] for i in range(1, k + 1)), Fraction(0)) / c[0])
    return QSeries(inv)


def expansion_from_dict(data: dict[IntPartition, Fraction]) -> PExpansion:
    """The expansion with the nonzero coefficients of ``data``, sorted by
    size, largest first, and then by partition."""
    cleaned = [(lam, Fraction(c)) for lam, c in data.items() if c != 0]
    cleaned.sort(key=lambda item: (-item[0].size, item[0]))
    return PExpansion(tuple(cleaned))
