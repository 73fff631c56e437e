"""Leading asymptotic constants of connected covering counts and the exact
volumes of strata of holomorphic differentials.

The pipeline: connected averages of products of power sums have a leading
coefficient (the elementary cumulant) given by a closed sum over set
partitions with explicit rational-times-pi-power terms, which Cayley's
count of labelled trees by degree turns into a rooted-tree DP over the
key's sorted sub-multisets (``_tree_cumulant``).  A Wick-type rule reduces
grouped averages to products of elementary cumulants over set partitions
complementary to the grouping, which are exactly the trees on groups and
blocks; the sum is a rooted-tree DP over multiplicity vectors of group
types, with no partition listed.  Expanding the central character
generators in the power-sum basis gives each group a choice of terms,
which the same DP makes inside one call: that yields the constant c(m),
and volumes follow by a shift and a dimension division.  Every rational
of both DPs is a product of frak_z values, whose denominators divide
products of Bernoulli denominators, so both sum in Python ints scaled by
a common denominator (``_common_denominator``) and build one Fraction at
the end.  The states of both are kept for the life of the process, each
under one common denominator that only grows: the cumulant tree's by
sorted sub-multiset, shared by every key and Wick leaf (``_tree_memo``),
and the Wick DP's by generator or group rather than by position in a
call (``_wick_memo``).  With every state held, a volume of genus <= 6
costs its key, its price and one read per term: about 60 us cache-cold
(2-core Xeon, Python 3.11).  Every stage has an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, compress, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import mul

from . import mvpoly
from .errors import DomainError, Record, ResourceCapError, as_int
from .exact_arith import PiScalar, frak_z_over_pi
from .partitions import (
    IntPartition,
    SetPartition,
    check_partition_work,
    iter_int_partitions,
    partition_counts,
    set_partitions_of,
    vector_splits,
)
from .shifted_symmetric import f_top_expansion

SERIES_ORACLE_CAP = 4
FOREST_ORACLE_CAP = 5
# Most steps (``_check_work``) of a Wick tree sum or elementary cumulant: at
# up to 0.55 us a step (2-core Xeon, Python 3.11), `cconst 54`, `cumulant 1998`
# and 28, 27, ..., 17 take 0.6-1.0 s cold; every stratum to genus 12 is admitted.
WICK_WORK_CAP = 2 * 10**6
# Most partitions p(0) + ... + p((n + 2) / 2) (``check_partition_work``)
# that c_simple(n), or a simple-table up to n, may be sized by: n up to
# 63.  On a 2-core Xeon with Python 3.11, the slowest admitted request,
# `simple-table --nmax 63`, takes about 3 s; c_simple(62) alone 0.7 s.
SIMPLE_WORK_CAP = 5 * 10**4


def _canon_key(m) -> tuple[int, ...]:
    key = tuple(sorted(map(as_int, m), reverse=True))
    if not key:
        raise DomainError("cumulant key must be nonempty")
    if key[-1] < 1:
        raise DomainError("cumulant key entries must be >= 1")
    return key


def elementary_cumulant(m) -> PiScalar:
    """Leading coefficient of the fully connected average of the power sums
    indexed by m = (m_1, ..., m_n).

    A sum over set partitions alpha of the index set: the one-block term is
    |m|! frak_z(|m| - n + 2), and a term with l >= 2 blocks is
    (-1)^(l-1) (l-2)! [t^(l-2)] of the product over blocks B of

        g_B(t) = |m_B|! sum_d frak_z(|m_B| - #B - d + 1) t^d / d!.

    (l - 2)! / prod d_B! counts the trees on the blocks in which B has
    degree d_B + 1 (Cayley), so a rooted-tree DP over the key's sorted
    sub-multisets sums it (``_tree_cumulant``), not partition by
    partition, in integers over one common denominator.  Every term carries
    pi^(|m| - n + 2), so the sum is a rational, memoized on the sorted
    key; its price is checked (``_check_work``) on every call, first.
    """
    key = _canon_key(m)
    values = sorted(set(key))
    top = sum(key) - len(key) + 2
    _check_work("cumulant", [(v,) for v in values], [key.count(v) for v in values], top)
    return PiScalar(_cumulant_over_pi(key), top)


@lru_cache(maxsize=None)
def _cumulant_over_pi(key: tuple[int, ...]) -> Fraction:
    """elementary_cumulant(key) divided by its pi power: the tree sum at
    the key's common denominator Q, divided by Q^n once."""
    scale = _common_denominator(sum(key) - len(key) + 2)
    return Fraction(_tree_cumulant(key, scale), scale ** len(key))


@lru_cache(maxsize=None)
def _common_denominator(top: int) -> int:
    """The least Q such that Q (j - 1)! frak_z(j) is an integer for every
    j <= top.  That value is +-(2^j - 2) B_j / j, so Q is made of the odd
    primes p with p - 1 | j (von Staudt-Clausen) and factors of j.

    For a key m with n parts and top = |m| - n + 2 it clears every block
    weight s! frak_z(j), j <= top and s >= j - 1 (``_weights``), so the
    cumulant of m times Q^n is an integer.  Q(top) divides Q(top + 1).
    """
    return lcm(*map(_denominator_factor, range(2, top + 1, 2)))


@lru_cache(maxsize=None)
def _denominator_factor(j: int) -> int:
    """j's factor of ``_common_denominator``: (j - 1)! once per process."""
    denominator = frak_z_over_pi(j).denominator
    return denominator // gcd(denominator, factorial(j - 1))


def _quotient(numerator: int, denominator: int) -> int:
    """numerator / denominator as an int; ArithmeticError when it is not
    one, so a wrong common denominator fails where the scaled values are
    built rather than giving a wrong sum."""
    whole, rest = divmod(numerator, denominator)
    if rest:
        raise ArithmeticError(f"{numerator}/{denominator} is not an integer")
    return whole


def _scaled(value, scale: int) -> int:
    """value * scale as an int (``_quotient``)."""
    return _quotient(value.numerator * scale, value.denominator)


# The cumulant tree's states for the whole process, (Q, weights, planted,
# forests): the common denominator whose powers scale them, then dicts by
# (size, parts) or sorted sub-multiset.  As with ``_wick_memo``, a larger Q
# replaces the tuple, and entries are stored whole: threads only lose work.
_tree_memo = {"memo": (1, {}, {}, {})}


def _tree_cumulant(key: tuple[int, ...], scale: int) -> int:
    """The cumulant of the sorted key over its pi power, times scale^n,
    an int for scale a multiple of the key's common denominator Q.  By
    Cayley's count of labelled trees by degree, it is

        sum_(alpha, tau) (-1)^(l - 1) prod_B |m_B|! frak_z(|m_B| - #B + 2 - deg_tau B)

    over the set partitions alpha into l blocks and the trees tau on them.
    Rooted at the block b of the first index, it is -sum W(b, k) forests(v
    - b)[k] (``_grow``) over sorted sub-multisets, with W(b, delta) = -s!
    frak_z(s - p + 2 - delta) Q^p for p parts summing to s (``_weights``)."""
    memo = _tree_memo["memo"]
    if memo[0] % scale:
        memo = _tree_memo["memo"] = (scale, {}, {}, {})
    total = -_grow(memo, key, 0)
    return total if memo[0] == scale else _quotient(total, (memo[0] // scale) ** len(key))


def _split_values(u: tuple[int, ...]) -> tuple[list[int], tuple[int, ...], list[int], int]:
    """u's distinct entries, largest first, their counts, 1 for each even
    one and 0 for each odd one, and the number of u's even entries."""
    values = sorted(set(u), reverse=True)
    counts, even = tuple(map(u.count, values)), [1 - v % 2 for v in values]
    return values, counts, even, sum(compress(counts, even))


def _grow(memo, u: tuple[int, ...], shift: int) -> int:
    """sum W(b, j + shift) forests(u - b)[j] over the root blocks b of u:
    those holding the first index at ``shift`` 0 (a tree), every nonempty
    b at ``shift`` 1 (a planted tree, whose edge up adds 1 to b's degree).
    frak_z vanishes at odd arguments, so W(b, delta) is 0 unless delta has
    the parity of s - p, and forests(u)[k] unless k has that of |u| - #u:
    every term is 0 unless that is ``shift``'s, and else the stored rows
    line up at one offset.  A rest with no even entry has no forest."""
    values, counts, even, evens = _split_values(u)
    if (evens - shift) % 2:
        return 0
    total = 0
    for T, R, ways in vector_splits(counts, not shift):
        parts, left = sum(T), evens - sum(compress(T, even))
        if parts and (left or parts == len(u)):
            size = sum(map(mul, T, values))
            forests = _forests(memo, tuple(chain.from_iterable(map(repeat, values, R))))
            row = _weights(memo, size, parts, left + shift)
            if shift and left % 2:  # the rest's forests start at degree 1
                row = row[1:]
            total += ways * sum(map(mul, row, forests))
    return total


def _planted(memo, u: tuple[int, ...]) -> int:
    """The sum over planted trees on u (``_grow``); 0 unless |u| - #u is
    odd, as the frak_z arguments of their blocks sum to |u| - #u + 1."""
    planted = memo[2]
    got = planted.get(u)
    if got is None:
        got = planted[u] = _grow(memo, u, 1)
    return got


def _forests(memo, u: tuple[int, ...]) -> tuple[int, ...]:
    """The sums over forests of k planted trees on u, at k = e mod 2, that
    + 2, ... up to u's e even entries (a planted tree holds an odd number
    of them): with the tree holding u's first index chosen by the
    first-block splits, forests(u)[k] = sum_a planted(a) forests(u -
    a)[k - 1], and forests(()) = (1,)."""
    if not u:
        return (1,)
    forests = memo[3]
    got = forests.get(u)
    if got is None:
        values, counts, even, evens = _split_values(u)
        out = [0] * (evens // 2 + 1)
        for T, R, ways in vector_splits(counts, True):
            own = sum(compress(T, even))
            if own % 2 and (own < evens or not any(R)):
                planted = ways * _planted(memo, tuple(chain.from_iterable(map(repeat, values, T))))
                if planted:  # the rest's row starts a cell later when u's is even
                    rest = _forests(memo, tuple(chain.from_iterable(map(repeat, values, R))))
                    for i, cell in enumerate(rest, 1 - evens % 2):
                        out[i] += planted * cell
        got = forests[u] = tuple(out)
    return got


def _weights(memo, size: int, parts: int, degree: int) -> tuple[int, ...]:
    """W(b, delta) of a block of ``parts`` entries summing to ``size``, at
    delta = s - p mod 2, that + 2, ... (the others are 0) up to ``degree``
    or s - p + 2; kept to the degrees asked for so far, widened on demand."""
    scale, weights = memo[0], memo[1]
    row = weights.get((size, parts), ())
    top, first = size - parts + 2, (size - parts) % 2
    stop = min(degree, top)
    if first + 2 * len(row) <= stop:
        lift = -factorial(size) * scale**parts
        zs = map(frak_z_over_pi, range(top - first - 2 * len(row), top - stop - 1, -2))
        row += tuple(_quotient(lift * z.numerator, z.denominator) for z in zs)
        weights[size, parts] = row
    return row


def elementary_cumulant_series_oracle(m) -> PiScalar:
    """Recompute the elementary cumulant by multivariate series expansion.

    Builds, per set partition alpha, the product of per-block series
    sum_j frak_z(j) (block sum)^(j + #block - 1) times the tree factor
    (-1)^(l-1) (sum of all variables)^(l-2), extracts the coefficient of
    x^m, and multiplies by m!.  Independent of the tree route: it sums
    in integers, every frak_z(j) scaled by the lcm U of their
    denominators and a term of l blocks by U^(n - l), and divides by U^n
    once.
    """
    key = _canon_key(m)  # also the exponents of x^m, in variable order
    n, max_deg = len(key), sum(key)
    if n > SERIES_ORACLE_CAP:
        raise ResourceCapError(f"series oracle supports at most {SERIES_ORACLE_CAP} parts, got {n}")
    zs = [frak_z_over_pi(j) for j in range(max_deg + 2)]
    unit = lcm(*(z.denominator for z in zs))
    zs = [z.numerator * (unit // z.denominator) for z in zs]

    def series(variables, shift: int) -> mvpoly.Poly:
        """sum_j U frak_z(j) (sum of ``variables``)^(j + shift), for the
        exponents 0 to max_deg, each power one product from the last."""
        form = mvpoly.linear(n, variables)
        first = max(0, -shift)
        power = mvpoly.power(form, first + shift, n, max_deg)
        out = mvpoly.zero()
        for j in range(first, max_deg - shift + 1):
            if zs[j]:
                out = mvpoly.add_scaled(out, power, zs[j])
            power = mvpoly.mul(power, form, max_deg)
        return out

    total = 0
    all_vars = mvpoly.linear(n, range(n))
    for alpha in set_partitions_of(range(n)):
        ell = len(alpha)
        if ell == 1:
            # tree factor is 1; series is sum_j frak_z(j) (sum x)^(j+n-2)
            poly = series(range(n), n - 2)
            total += mvpoly.coefficient(poly, key) * unit ** (n - 1)
            continue

        sign = 1 if ell % 2 == 1 else -1
        poly = mvpoly.power(all_vars, ell - 2, n, max_deg)
        for block in alpha:
            poly = mvpoly.mul(poly, series(block, len(block) - 1), max_deg)
        total += sign * mvpoly.coefficient(poly, key) * unit ** (n - ell)
    return PiScalar(Fraction(prod(map(factorial, key)) * total, unit**n), max_deg - n + 2)


def t_poly_forest_oracle(rho: SetPartition) -> bool:
    """Check the polynomial identity between the closed form of the tree
    factor attached to rho and its expansion as a sum over spanning
    forests: forests on {1..n} with length(rho)-1 edges that connect all
    blocks of rho, each contributing the product of x_i x_j over edges."""
    n = rho.n
    if n > FOREST_ORACLE_CAP:
        raise ResourceCapError(f"forest oracle supports at most {FOREST_ORACLE_CAP} points, "
                               f"got {n}")
    ell = rho.length

    # Closed form: (-1)^(l-1) (sum x)^(l-2) prod_blocks (block sum); equal
    # to 1 when there is a single block.
    if ell == 1:
        closed = mvpoly.const(n, 1)
    else:
        sign = 1 if ell % 2 == 1 else -1
        closed = mvpoly.power(mvpoly.linear(n, range(n)), ell - 2, n)
        for block in rho.blocks:
            closed = mvpoly.mul(closed, mvpoly.linear(n, [i - 1 for i in block]))
        closed = mvpoly.add_scaled(mvpoly.zero(), closed, sign)

    # Forest sum over (l-1)-subsets of cross-block edges whose contraction
    # is a spanning tree on the blocks.
    block_of = {x: bi for bi, block in enumerate(rho.blocks) for x in block}
    cross_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   if block_of[i] != block_of[j]]
    sign = 1 if ell % 2 == 1 else -1
    forest_sum = mvpoly.zero()
    for edges in combinations(cross_edges, ell - 1):
        parent = list(range(ell))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edges:
            ri, rj = find(block_of[i]), find(block_of[j])
            if ri == rj:
                break  # a cycle
            parent[ri] = rj
        else:
            mono_poly = mvpoly.const(n, 1)
            for i, j in edges:
                mono_poly = mvpoly.mul(mono_poly, mvpoly.variable(n, i - 1))
                mono_poly = mvpoly.mul(mono_poly, mvpoly.variable(n, j - 1))
            forest_sum = mvpoly.add_scaled(forest_sum, mono_poly, sign)

    return closed == forest_sum


class WickGroups(Record):
    """An ordered list of partitions whose parts are jointly labeled
    1..n; the grouping partition has one block per consecutive range."""

    __slots__ = ("groups",)

    def __init__(self, groups) -> None:
        if not groups:
            raise DomainError("need at least one group")
        groups = tuple(IntPartition(g) for g in groups)
        for g in groups:
            if not g:
                raise DomainError("groups must be nonempty partitions")
        object.__setattr__(self, "groups", groups)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(p for g in self.groups for p in g)

    @property
    def n(self) -> int:
        return sum(g.length for g in self.groups)


class WickLeading(Record):
    __slots__ = ("value", "hbar_exponent")  # PiScalar, int


def _check_work(what: str, values, counts, top: int, dp=()) -> int:
    """The price of a request from its key, before any expansion, cumulant
    or tree; ResourceCapError when over WICK_WORK_CAP.  counts[h] groups
    or key entries of type h take parts from ``values[h]``, one per group
    in a block, n in all; a product or division of an a-bit and a b-bit
    integer is 1 + a b / 2^20 steps, and bits(Q) <= 3 top / 2 + 8.  It
    bounds the tangent triangle and factorials up to ``top``; for a Wick
    tree sum, with ``dp`` per type (terms, parts, parts expanded, entries,
    value tuples, most parts in a term), a step per term and part, per
    vector S below the root each T <= S per value tuple (``dist``) and
    entry (``down``), per block key each first-block split and part
    (``blk``), each but at S = 0 (leaves) a product of DP values that carry
    Q once per part of their groups' terms; per number p of parts, a block
    series per size s from the sum of the p smallest parts to that of the p
    largest, of <= n / 2 + 1 coefficients of <= 2 s log2 s bits; and the
    cumulant tree (``_state_steps``), none for a key whose cumulant
    vanishes by parity, in closed form over the splits u = T + R of each
    type's parts, or state by state when that is over the cap, as for no
    stratum through genus 10.  Every block key is a root; for a key alone,
    only it is, and its other states lack one of its largest parts."""
    n = sum(counts)
    price, splits, walks, rests, evens, hi, lo = 2 * (top // 2) ** 2, 1, 0, 0, 0, [], []
    states, pairs, below, every = int(bool(dp)), 1, 1, 1
    steps, tuples, entries, elements, blk = dp[0][0] if dp else 0, 0, 0, 0, 0
    for h, (vs, c) in enumerate(zip(values, counts)):
        v, e, first = len(vs), len(vs) - sum(map((1).__and__, vs)), h == 0  # e even values
        both, more = comb(c + 2 * v, c), comb(c + 2 * v, c - 1) * splits  # pairs; parts / 2v
        walks, rests, evens = walks * both + more * 4 * v, rests * both + more * e, evens + c * e
        splits *= both
        hi += [vs[-1]] * c  # values[h] is increasing
        lo += [vs[0]] * c
        if dp:
            d, b, own = dp[h], c - first, comb(c + v + 2, c) - (c + 1) * first
            states, pairs, below = states * (c + 1), pairs * (b + 1) * (b + 2) // 2, below * (b + 1)
            steps, tuples, entries = steps + d[0] + d[1] + d[2], tuples + d[4], entries + d[3]
            blk = blk * own + every * (comb(c + v + 1, c - 1) - c * first) * v
            every, elements = every * own, elements + c * d[5]
    size = low = 0
    for big, small in zip(sorted(hi, reverse=True), sorted(lo)):
        size, low = size + big, low + small
        price += (size - low + 1) * (n // 2 + 1) * (1 + ((2 * size * size.bit_length()) ** 2 >> 20))
    bits, log = 3 * top // 2 + 8, size * size.bit_length()
    # A product in the tree (<= n parts) or of two DP values (a Q per element)
    weight, heavy = 1 + ((n * bits + log) ** 2 >> 22), 1 + ((elements * bits + log) ** 2 >> 22)
    price += states + steps + tuples + ((pairs - 1) * tuples + (below - 1) * entries + blk) * heavy
    tree = 0 if not dp and evens % 2 else splits * (1 + 2 * weight) + walks + rests * weight
    if splits <= WICK_WORK_CAP and price <= WICK_WORK_CAP < price + tree:
        keys, tree = {()}, 0 if dp else _state_steps(tuple(sorted(chain(*map(
            repeat, chain(*values), counts)), reverse=True)), bits)[1]
        for h, (vs, c) in enumerate(zip(values, counts)):
            picks = [p for j in range(c + 1 - (not dp and h == len(counts) - 1))
                     for p in combinations_with_replacement(vs, j)]
            keys = {tuple(sorted(k + p, reverse=True)) for k in keys for p in picks}
        for u in keys - {()}:
            inner, root = _state_steps(u, bits)
            tree += inner + root * bool(dp)
            if price + tree > WICK_WORK_CAP:
                break
    price += tree * (price <= WICK_WORK_CAP)
    if price > WICK_WORK_CAP:
        raise ResourceCapError(f"{what} work of at least {price} steps exceeds cap {WICK_WORK_CAP}")
    return price


@lru_cache(maxsize=None)
def _state_steps(u: tuple[int, ...], bits: int) -> tuple[int, int]:
    """The tree's steps at u for bits(Q) <= ``bits``, as a forest row and,
    for an odd number e of even entries, a planted sum; then as a root, for
    an even e.  Per split T walked (holding u's first index but in a planted
    sum), #u + 1 (#u in a row), and a product per cell of the rest's forest
    row, (e - o) / 2 + 1 for o < e even entries in T or 1 for T = u, of a-
    and b-bit integers, a + b <= #u bits + log2 |u|! + 1."""
    values, counts, even, evens = _split_values(u)
    ways = [1]  # splits T by o: all, then those holding u's first index
    for m, e in zip(reversed(counts), reversed(even)):  # u's first value last
        rest, ways = ways, ([sum(ways[max(0, o - m):o + 1]) for o in range(len(ways) + m)] if e
                            else [w * (m + 1) for w in ways])
    heads = [w - r for w, r in zip(ways, rest + [0] * counts[0])]
    n, odd, rows = len(u), evens % 2, [(evens - o) // 2 + 1 for o in range(evens)]
    weight = 1 + ((n * bits + factorial(sum(u)).bit_length() + 1) ** 2 >> 22)
    forest, grown = heads[1:evens:2], ways[:evens] if odd else heads[:evens]
    forest = n * (sum(forest) + odd) + weight * (sum(map(mul, forest, rows[1::2])) + odd)
    grown = (n + 1) * (sum(grown) + 1 - odd) + weight * (  # a planted sum's T is nonempty
        sum(map(mul, grown, rows)) + 1 - odd * (evens // 2 + 1))
    return (forest + grown, 0) if odd else (forest, grown)


# The Wick tree sum's states for the whole process, as the tuple
# (Q, leaf, dist, down, blk, types): the common denominator Q whose powers
# scale them, then the ``leaf``, ``down`` and ``blk`` values of
# ``_wick_tree_sum``, its ``dist`` values with groups below, and per type
# label its pad E_h Q^(L_h), scaled terms and entries, each a dict.  It is
# kept under the key "memo" of a dict that, like every other
# memo of the package, is changed in place and never rebound.  A call
# whose common denominator does not divide Q puts a fresh tuple at its
# own, larger Q in its place; the old dicts are never cleared, so a thread
# still using them writes only to them.  Each call computes with the
# tuple it read and checked, so two threads that replace it at once, or
# compute one state twice, lose only work.
_wick_memo = {"memo": (1, {}, {}, {}, {}, {})}


def _wick_tree_sum(labels, types, counts: tuple[int, ...], reach: int) -> tuple[int, int]:
    """The Wick sum, divided by its pi power, over labelled groups:
    counts[h] groups of type h, each of which picks one (lam, coeff) of
    ``types[h]`` and contributes coeff; every part of lam is an element.
    A set partition alpha of the elements is complementary to the grouping
    exactly when the incidence graph with a vertex per group and per block
    of alpha and an edge per element is a tree, and the term of alpha is
    the product over its blocks B of the cumulant of B's parts.

    The tree is rooted at one group of type 0, so each block has a parent
    group (through one element) and each other group a parent block
    (through one element).  Groups of the same type are interchangeable,
    so the sums run over multiplicity vectors S of groups (tuples indexed
    by type), with binomial factors for the choice of labels:

    - ``dist(values, S)``: the groups S hang below the elements ``values``
      of one group, in one child block per element; summed over ordered
      splits S = T_1 + ... with weight prod_i C(S_i, T_i)
      (``partitions.vector_splits``).
    - ``blk(values, S)``: a block that holds ``values`` so far, with S
      below it.  At S = 0 it closes with the cumulant of its values.
      Otherwise the subtree holding the first group of S, of type t, is
      chosen in C(S_t - 1, T_t - 1) prod_{i != t} C(S_i, T_i) ways (the
      first-block splits of ``vector_splits``); its
      root, one of the T_h groups of type h, enters the block through a
      part w of its term and hangs the rest of T below its other parts:
      ``down(T)``, by w, sums T_h coeff mult_lam(w) dist(lam - w, T - e_h).

    Every element carries one factor Q, a multiple of the common
    denominator of the largest block key (a block holds at most one part
    of each group), so a block of k parts closes with Q^k times its
    cumulant, an integer: ``reach`` is the caller's 2 + sum_h c_h (top part
    of type h - 1), and Q is a multiple of its common denominator.  The
    coefficients of type h are scaled by the lcm E_h of their denominators,
    and a term lam by Q^(L_h - len(lam)) for the longest term length L_h,
    so every choice carries prod_h (E_h Q^(L_h))^(c_h): the sum runs in
    integers, returned with that product for the caller to divide once.

    Type h has the label ``labels[h]``, which fixes its terms: the
    generator k (an int) for f_cumulant_leading, the group partition (a
    tuple) for wick_leading, so the two never meet.  A state is keyed by
    the labels and multiplicities of its S (``_Tags``, made as the call
    first reads S), not by type positions, and its value depends only on
    them and Q, so every call whose Q divides the memo's (``_wick_memo``)
    reads and adds to the same states.  So does a type's pad E_h Q^(L_h),
    its scaled terms and its entries (w, lam without one w, scaled coeff *
    mult_lam(w)): each is built once per label and Q, or per call, with
    no entries, for a lone group.  With every state held, a call reads
    one tag and one state per term of type 0: about 22 us cache-cold for
    a stratum of genus <= 6, of which 7 us set-up (2-core Xeon).
    """
    memo = _wick_memo["memo"]
    if memo[0] % _common_denominator(reach):
        memo = _wick_memo["memo"] = (_common_denominator(reach), {}, {}, {}, {}, {})
    scale, leaf_memo, dist_memo, down_memo, blk_memo, type_memo = memo
    # A lone group keeps no state but its leaves, so that the memo does not
    # grow with one large generator: its type, with no entries, is per call.
    kept = type_memo if sum(counts) > 1 else {}
    held, denominator = [], 1  # per type: E_h Q^(L_h), scaled terms, entries
    for label, terms, c in zip(labels, types, counts):
        got = kept.get(label)
        if got is None:
            longest = max(len(lam) for lam, _ in terms)
            unit = lcm(*(coeff.denominator for _, coeff in terms))
            pads = [unit * scale**k for k in range(longest + 1)]
            scaled = [(tuple(lam), _scaled(coeff, pads[longest - len(lam)])) for lam, coeff in terms]
            row = [(w, lam[:i] + lam[i + 1:], coeff * lam.count(w))
                   for lam, coeff in scaled for i, w in enumerate(lam)
                   if i == 0 or lam[i - 1] != w] if kept is type_memo else ()
            got = kept[label] = pads[longest], scaled, row
        held.append(got)
        denominator *= got[0] ** c
    _, scaled_types, entries = zip(*held)
    tag = _Tags()
    tag.labels = labels

    def leaf(values):
        got = leaf_memo.get(values)
        if got is None:
            got = leaf_memo[values] = _tree_cumulant(values, scale)
        return got

    def dist(values, S):
        key = (values, tag[S])
        if not key[1]:  # a product of leaves, up to its first 0; kept by none
            got = 1
            for w in values:
                got = got and got * leaf((w,))
            return got
        if not values:
            return 0
        got = dist_memo.get(key)
        if got is None:
            head, rest = values[:1], values[1:]
            if not rest:
                got = blk(head, S)
            else:
                got = 0
                for T, R, ways in vector_splits(S):
                    b = blk(head, T)
                    if b:
                        got += ways * b * dist(rest, R)
            dist_memo[key] = got
        return got

    def down(T):
        key = tag[T]
        got = down_memo.get(key)
        if got is None:
            by_part: dict[int, int] = {}
            for h, row in enumerate(entries):
                if T[h]:
                    R = T[:h] + (T[h] - 1,) + T[h + 1:]
                    for w, rest, weight in row:
                        d = dist(rest, R)
                        if d:
                            by_part[w] = by_part.get(w, 0) + T[h] * weight * d
            got = down_memo[key] = [(w, v) for w, v in by_part.items() if v]
        return got

    def blk(values, S):
        if not any(S):
            return leaf(values)
        key = (values, tag[S])
        got = blk_memo.get(key)
        if got is None:
            got = 0
            for T, R, ways in vector_splits(S, True):
                for w, d in down(T):
                    grown = tuple(sorted(values + (w,), reverse=True))
                    got += ways * d * blk(grown, R)
            blk_memo[key] = got
        return got

    below_root = (counts[0] - 1,) + tuple(counts[1:])
    return sum(coeff * dist(lam, below_root) for lam, coeff in scaled_types[0]), denominator


class _Tags(dict):
    """S -> its groups' labels and multiplicities, the key of its states."""

    def __missing__(self, S):
        got = self[S] = tuple(compress(zip(self.labels, S), S))
        return got


def wick_leading(groups) -> WickLeading:
    """Leading coefficient of the grouped connected average of power sums:
    the sum, over set partitions complementary to the grouping rho, of the
    product of elementary cumulants of the parts collected per block.

    The sum is the rooted-tree DP of ``_wick_tree_sum``, in which each
    distinct group is a type whose only term is itself with coefficient
    1; no complementary partition is listed.  Its price (``_check_work``)
    is checked before any cumulant.  The accompanying exponent (sum of
    (part+1) over all parts, minus the number of groups, plus one) is
    returned as metadata.  Every complementary partition has n - l(rho) + 1
    blocks and each block cumulant carries pi^(|block| - #block + 2), so
    every term carries pi^(sum(parts) - n + 2 (n - l(rho) + 1)): the sum is
    taken over rationals and the pi power attached once.
    """
    wg = groups if isinstance(groups, WickGroups) else WickGroups(tuple(groups))
    n = wg.n
    parts = wg.parts
    ell = len(wg.groups)
    kinds = sorted(set(wg.groups))
    counts = tuple(wg.groups.count(g) for g in kinds)
    reach = 2 + sum(c * (g[0] - 1) for g, c in zip(kinds, counts))
    _check_work("Wick tree sum", [tuple(sorted(set(g))) for g in kinds], counts, reach,
                [(1, len(g), 0, len(set(g)), len(g) * (len(set(g)) + 1), len(g)) for g in kinds])
    total, denominator = _wick_tree_sum([tuple(g) for g in kinds], [((g, 1),) for g in kinds],
                                        counts, reach)
    exponent = sum(p + 1 for p in parts) - ell + 1
    pi_pow = sum(parts) - n + 2 * (n - ell + 1)
    return WickLeading(PiScalar(Fraction(total, denominator), pi_pow), exponent)


def f_cumulant_leading(m) -> PiScalar:
    """Leading coefficient of the connected average of the central
    character generators indexed by m: expand each generator in its
    top-weight power-sum terms, distribute multilinearly, and apply the
    Wick rule to every choice.

    The expansion sum is folded into one Wick tree sum (``_wick_tree_sum``)
    whose types are the distinct generators k, each with the terms of
    f_k: a group picks its term inside the DP, so no choice is listed.
    A term of f_k has weight k + 1, so every choice carries the same pi
    power |m| - l(m) + 2, attached once.
    """
    return _generator_sum(_canon_key(m), 1)


def _generator_sum(key: tuple[int, ...], divisor: int) -> PiScalar:
    """f_cumulant_leading(key) / divisor for a sorted key, as one Fraction."""
    if key[-1] < 2:
        raise DomainError("generator indices must be >= 2")
    kinds = sorted(set(key), reverse=True)
    counts, reach = tuple(map(key.count, kinds)), sum(key) - len(key) + 2  # f_k's top part is k
    check_generator_work(kinds, counts)
    types = [f_top_expansion(k).terms for k in kinds]
    total, denominator = _wick_tree_sum(kinds, types, counts, reach)
    return PiScalar(Fraction(total, denominator * divisor), reach)


def check_generator_work(kinds, counts) -> int:
    """The price of the Wick tree sum over counts[i] groups of f_k, k =
    kinds[i] >= 2 decreasing, whose terms are partitions of k + 1 without
    a part 1, less 1 in each part."""
    values, steps = zip(*map(_generator_figures, kinds))
    return _check_work("Wick tree sum", values, counts,
                       2 + sum(map(mul, counts, kinds)) - sum(counts), steps)


@lru_cache(maxsize=None)
def _generator_figures(k: int) -> tuple[tuple[int, ...], tuple[int, int, int, int, int, int]]:
    """f_k's figures for ``_check_work``: the parts of its terms, increasing (1 to k - 2, and
    k), and from partition counts p, q(i) = p(i) - p(i - 1): q(k + 1) terms, q(k + 1 - jr)
    with r parts j, p(k - 1) entries, p(k + 1) tuples, at most (k + 1) // 2 parts in one."""
    values, p = (*range(1, k - 1), k), partition_counts(k + 1, WICK_WORK_CAP)
    if len(p) <= k + 1:
        return values, (0, 0, 0, 0, WICK_WORK_CAP + 1, 0)
    q = [1] + [p[i] - p[i - 1] for i in range(1, k + 2)]
    parts = sum(q[k + 1 - j * r] for j in range(2, k + 2) for r in range(1, (k + 1) // j + 1))
    return values, (q[k + 1], parts, parts, p[k - 1], p[k + 1], (k + 1) // 2)


def c_const(m) -> PiScalar:
    """The leading asymptotic constant of connected covering counts with
    branch profile m (entries >= 2), symmetric in m."""
    key = _canon_key(m)
    return _generator_sum(key, factorial(sum(key)))


def c_simple(n: int) -> PiScalar:
    """The constant for n simple branch points, via the closed form that
    sums over partitions mu of n + 2 into even parts only:

        c / n! = sum (-1)^(l-1) / (kappa! (2n - l + 2)!)
                 * prod (2 mu_i - 3)!!  * prod frak_z(mu_i)

    with l the number of parts and kappa! the product of multiplicity
    factorials.  The even partitions are the doubled partitions of L =
    (n + 2) / 2, and every term carries pi^(n + 2); they sum in integers
    times U^L L! (2n + 1)!, U the lcm of the frak_z denominators.  Vanishes
    for odd n, where no such partition exists.  Raises ResourceCapError
    before any term when the partitions up to L are over SIMPLE_WORK_CAP.
    """
    n = as_int(n)
    if n < 1:
        raise DomainError(f"need at least one branch point, got {n}")
    half_n = (n + 2) // 2
    check_partition_work(half_n, SIMPLE_WORK_CAP, "simple-branching")
    if n % 2 == 1:
        return PiScalar.zero()
    zs = [frak_z_over_pi(2 * h) for h in range(half_n + 1)]
    unit = lcm(*(z.denominator for z in zs))
    part = [prod(range(4 * h - 3, 0, -2)) * z.numerator * (unit // z.denominator)
            for h, z in enumerate(zs)]  # (2 mu - 3)!! U frak_z(mu) at mu = 2h
    total = 0
    for half in iter_int_partitions(half_n):
        total += ((-1) ** (len(half) - 1) * unit ** (half_n - len(half)) * factorial(half_n)
                  * prod(range(2 * n - len(half) + 3, 2 * n + 2))
                  // prod(map(factorial, half.multiplicities().values()))
                  * prod(map(part.__getitem__, half)))
    scale = unit**half_n * factorial(half_n) * factorial(2 * n + 1)
    return PiScalar(Fraction(total * factorial(n), scale), n + 2)


# ---------------------------------------------------------------------------
# Stratum volumes
# ---------------------------------------------------------------------------


class StratumSpec(Record):
    """Zero multiplicities of a holomorphic differential: positive parts
    with even total 2g - 2 >= 2."""

    __slots__ = ("mu",)

    def __init__(self, mu) -> None:
        mu = IntPartition(mu)
        if not mu:
            raise DomainError("stratum needs at least one zero")
        if mu.size % 2 != 0:
            raise DomainError(f"no such stratum: |mu| = {mu.size} must be even")
        object.__setattr__(self, "mu", mu)

    @property
    def genus(self) -> int:
        return self.mu.size // 2 + 1

    @property
    def dim(self) -> int:
        return 2 * self.genus + self.mu.length - 1


ROUTE_GENERAL = "general"
ROUTE_SIMPLE = "simple-closed-form"


class VolumeResult(Record):
    # IntPartition, int, int, PiScalar, PiScalar and one of the ROUTE_* names
    __slots__ = ("mu", "genus", "dim", "volume", "c_const", "route")

    def as_json_dict(self) -> dict:
        return {"mu": list(self.mu), "genus": self.genus, "dim": self.dim,
                "c": self.c_const.as_json_dict(), "volume": self.volume.as_json_dict(),
                "route": self.route}


def volume(mu, cross_check: bool = False) -> VolumeResult:
    """Exact normalized volume of the stratum with zero multiplicities mu.

    Genus is |mu|/2 + 1, the dimension is 2 genus + length - 1, and the
    volume is the covering constant of the shifted profile mu + (1,...,1)
    divided by the dimension.  For mu = (1,...,1) the closed form for
    simple branching is used; ``cross_check`` additionally runs the general
    pipeline and requires exact agreement.
    """
    spec = mu if isinstance(mu, StratumSpec) else StratumSpec(mu)
    shifted = tuple([p + 1 for p in spec.mu])
    if spec.mu[0] == 1:
        # The general route goes first so that its work cap is checked
        # before the closed form runs.
        general = c_const(shifted) if cross_check else None
        c_value = c_simple(spec.mu.length)
        route = ROUTE_SIMPLE
        if cross_check and general != c_value:
            raise RuntimeError(f"route disagreement for mu={spec.mu}: {general} vs {c_value}")
    else:
        c_value = c_const(shifted)
        route = ROUTE_GENERAL
    return VolumeResult(spec.mu, spec.genus, spec.dim, c_value / spec.dim, c_value, route)
