"""Leading asymptotic constants of connected covering counts and the exact volumes of
strata of holomorphic differentials.

Connected averages of products of power sums have a leading coefficient, the elementary
cumulant: a sum over set partitions of the parts and trees on their blocks, of
rational-times-pi-power terms.  A Wick-type rule reduces grouped averages to products of
elementary cumulants over set partitions complementary to the grouping, which are the
trees on groups and blocks.  The two trees make one, on groups and sub-blocks, summed by
one rooted-tree DP over multiplicity vectors of group types (``_wick_tree_sum``), with
no partition listed; the elementary cumulant is its case of one part per group.
Expanding the central character generators in the power-sum basis gives each group a
choice of terms, which the same DP makes: that yields the constant c(m), and volumes
follow by a shift and a dimension division.  Every rational of the DP is a product of
frak_z values, so it sums in Python ints scaled by a common denominator
(``_common_denominator``) and builds one Fraction at the end.  Its states are kept for
the life of the process under one common denominator that only grows (``_wick_memo``).
Every stage has an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, count, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, itemgetter, mul

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
# Most steps (``_check_work``) of a Wick tree sum or elementary cumulant: the slowest
# admitted requests, `cumulant 1000,996`, 92 2s and 31, 30, ..., 20, take 1.0-1.4 s
# cold (2-core Xeon, Python 3.11); every stratum to genus 14 is admitted.
WICK_WORK_CAP = 2 * 10**6
# Small keys are admitted without pricing them: at any cap at least its pin, every
# generator key of reach |m| - l(m) + 2 <= 20 (every stratum to genus 10) is priced
# (``_check_work``) at most GENERATOR_PRICE_PIN, and every cumulant key of |m| <= 20 at
# most CUMULANT_PRICE_PIN.  While WICK_WORK_CAP is at least the pin, such keys skip the
# price.  The tests price every key of both boxes, so a pin follows the price.
GENERATOR_PRICE_PIN = 395_387
CUMULANT_PRICE_PIN = 21_972
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
    """Leading coefficient of the fully connected average of the power sums indexed by m
    = (m_1, ..., m_n): over the set partitions alpha of the index set into l blocks and
    the trees tau on the blocks, the sum of

        (-1)^(l - 1) prod_B |m_B|! frak_z(|m_B| - #B + 2 - deg_tau B),

    which is the Wick tree sum over one group per entry (``_wick_tree_sum``).  Every
    term carries pi^(|m| - n + 2), so the sum is a rational; its price is checked
    (``_check_work``) first, unless |m| <= 20 and WICK_WORK_CAP is at least
    CUMULANT_PRICE_PIN, the most any such key is priced at.
    """
    key = _canon_key(m)
    kinds, top = [(v,) for v in sorted(set(key))], sum(key) - len(key) + 2
    if sum(key) > 20 or WICK_WORK_CAP < CUMULANT_PRICE_PIN:
        _check_work("cumulant", *_group_figures(kinds, [key.count(v) for (v,) in kinds], top))
    return PiScalar(_cumulant_over_pi(key), top)


def _group_figures(kinds, counts, reach: int) -> tuple:
    """``_check_work``'s arguments for counts[h] groups kinds[h], each its own only term."""
    return ([tuple(sorted(set(g))) for g in kinds], counts, reach,
            [(1, len(g), 0, len(set(g)), len(g) * (len(set(g)) + 1), len(g), (sum(g) - len(g)) % 2)
             for g in kinds])


def _cumulant_over_pi(key: tuple[int, ...]) -> Fraction:
    """elementary_cumulant(key) divided by its pi power: the Wick tree sum over one
    group per entry (``_wick_tree_sum``)."""
    kinds = sorted(set(key))
    return Fraction(*_wick_tree_sum([(v,) for v in kinds], [(((v,), 1),) for v in kinds],
                                    tuple(map(key.count, kinds)), sum(key) - len(key) + 2))


@lru_cache(maxsize=None)
def _common_denominator(top: int) -> int:
    """The least Q such that Q (j - 1)! frak_z(j) is an integer for every j <= top.
    That value is +-(2^j - 2) B_j / j, so Q is made of the odd primes p with p - 1 | j
    (von Staudt-Clausen) and factors of j.

    For a key m with n parts and top = |m| - n + 2 it clears every block weight s!
    frak_z(j) Q, j <= top and s >= j - 1 (``_wick_tree_sum``), so the cumulant of m
    times Q^n is an integer.  Q(top) divides Q(top + 1).
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


def _check_work(what: str, values, counts, top: int, dp) -> int:
    """The price of a Wick tree sum (``_wick_tree_sum``) from its key, before any
    expansion or state; ResourceCapError when over WICK_WORK_CAP.  counts[h] groups
    of type h take parts from ``values[h]`` (increasing), n groups in all; ``dp[h]``
    holds the type's terms, parts, parts expanded, entries, value tuples, most parts
    in a term and the parity of its terms' |lam| - len(lam).  A product or division
    of an a-bit and a b-bit integer is 1 + a b / 2^20 steps, and bits(Q) <= 3 top / 2
    + 8.  It bounds the tangent triangle and factorials up to ``top``, a step per
    term and part, per number p of parts a row of block weights per size s from the
    sum of the p smallest parts to that of the p largest, of <= (n - p) / 2 + 1 cells
    (a sub-block of p parts has tau-degree <= n - p) of <= 2 s log2 s bits, and
    unless the sum vanishes by parity, its states (``_state_work``)."""
    n = sum(counts)
    price = 2 * (top // 2) ** 2 + dp[0][0] + sum(map(sum, map(itemgetter(0, 1, 2, 4), dp)))
    hi = sorted(chain.from_iterable(map(repeat, map(itemgetter(-1), values), counts)), reverse=True)
    lo = sorted(chain.from_iterable(map(repeat, map(itemgetter(0), values), counts)))
    size = low = 0
    for p, (big, small) in enumerate(zip(hi, lo), 1):
        size, low = size + big, low + small
        cells = (size - low + 1) * ((n - p) // 2 + 1)
        price += cells * (1 + ((2 * size * size.bit_length()) ** 2 >> 20))
    if not sum(map(mul, map(itemgetter(6), dp), counts)) % 2:
        price += _state_work(values, (counts[0] - 1, *counts[1:]), top, dp, size,
                             WICK_WORK_CAP - price)
    if price > WICK_WORK_CAP:
        raise ResourceCapError(f"{what} work of at least {price} steps exceeds cap {WICK_WORK_CAP}")
    return price


def _state_work(values, below, top: int, dp, size: int, room: int) -> int:
    """The steps of ``_wick_tree_sum``'s states over the groups ``below`` the root
    (``size``: the largest block's part sum).  Per pair T + R = S <= below, t = |T|,
    r = |R| and o odd groups in R: forests(R) has <= (o + 1) // 2 cells (1 at R = 0);
    kids(T) has <= prod_h roots[h][T_h] entries (``_pair_tables``), and <= sum_p (p
    spread + 1) for its p <= t element children of parts ``spread`` apart; ``sub``
    per part w opening a sub-block (or planted, w = 0) and pair whose S has its
    parity (w - 1 + pi(S) even; with no branchy type only the root's part opens one,
    at S = below) takes a step, and unless forests(R) is empty two more and a product
    per cell; ``dist`` per value tuple and pair, ``down`` per S and entry a product;
    per pair whose T holds S's first group, ``forests`` a step and a product per cell
    if T has odd parity, and ``kids`` a product per part and entry of kids(R);
    ``closed`` per part opening a sub-block and T, a product per entry and cell of a
    row of <= (o' + 1) // 2 + 1 for the o' odd groups not in T.  A value over t groups
    has <= t ``group`` bits: Q per element and its blocks' factorials, log2 s! <= s
    (bitlen(s) - 1) + bitlen(s).  Summed with (t, r, o) at the largest (r at 0 if no
    group has odd parity), then by size if that is over ``room``."""
    most, openers, tuples, entries, states = max(map(itemgetter(5), dp)), set(), 0, 0, 1
    branchy, n, e, cost, table, pairs, kid_rows, closed_rows = most > 1, 0, 0, 0, 1, 1, 1, 1
    for h, (vs, c, d) in enumerate(zip(values, below, dp)):
        if h == 0 or d[5] > 1:
            openers.update(vs)
            tuples += d[4]
        entries, cost = entries + d[3], cost + 8 * table  # by size: ~8 products of tables
        if not c:  # its only pair, T = R = 0, changes no sum
            continue
        _, both, rows, kid = _pair_sums(c, len(vs), vs[-1] - vs[0], branchy)
        pairs, closed_rows, kid_rows = pairs * both, closed_rows * rows, kid_rows * kid
        n, e, states = n + c, e + c * d[6], states * (c + 1)
        cost, table = cost + 8 * table * (both - 1), min(table * both, (n + 1) ** 2 * (e + 1))
    parts, heads, tuples = len(openers), len(openers) + 1, tuples * branchy  # and planted
    square = (most * (3 * top // 2 + 8) + max(map(itemgetter(-1), values)) * (size.bit_length() - 1)
              + size.bit_length()) ** 2  # of ``group``

    # first at the largest: values over n and n + 1 groups, rows of (e + 1) // 2 cells
    big, bigger, half = 1 + (n * n * square >> 20), 1 + (n * (n + 1) * square >> 20), (e + 1) // 2
    opens = 3 + half * bigger if e else 4  # only forests(()) has a cell if no group has odd parity
    work = (states + (states - 1) * entries * big * branchy + tuples * (pairs - 1) * (1 + bigger)
            + pairs * ((heads if branchy else 1) * opens + 1 + (half * big if e else 1))
            + closed_rows * (heads * (half + 1) * bigger + (not branchy) * parts * opens)
            + kid_rows * (parts * big if branchy else 1 + (n * square >> 20)))
    if work <= room or cost > room:  # then the largest stand
        return work

    def product(a, b):
        return 1 + (a * b * square >> 20)

    def opened(t, r, o):  # sub's steps per pair and part
        rows = (o + 1) // 2 if r else 1
        return 3 + rows * product(r, t + 1) if rows else 1

    work = states + (states - 1) * entries * product(n, n) * branchy
    tables = [_pair_tables(c, len(vs), vs[-1] - vs[0], d[6], branchy)
              for vs, c, d in zip(values, below, dp)]
    signed, odd_heads = _by_size(f["by S"] for f in tables), sum(w % 2 for w in openers)
    every = _by_size(f["pairs"] for f in tables)
    for (t, r, o), k in every.items():
        even = (k + signed.get((t, r, o), 0)) // 2  # pairs whose S has even parity
        subs = (odd_heads * even + (heads - odd_heads) * (k - even) if branchy
                else k - even + k * (t + r == n))
        work += subs * opened(t, r, o) + tuples * k * (1 + product(t + 1, r)) * (t + r > 0)
    odds = _leading([f["by T"] for f in tables])
    for (t, r, o), k in _leading([f["pairs"] for f in tables]).items():  # by forest row
        odd = (k - odds.get((t, r, o), 0)) // 2  # pairs whose T has odd parity
        work += k + odd * ((o + 1) // 2 if r else 1) * product(t, r)
    spread = max(map(itemgetter(-1), values)) - min(map(itemgetter(0), values))
    for (t, r, o), k in _by_size(f["closed"] for f in tables).items():
        k = min(k, every[t, r, o] * (t + 1) * (spread * t + 2) // 2)
        work += k * (heads * ((o + 1) // 2 + 1) * product(t, t + 1)
                     + (not branchy) * parts * opened(t, r, o))
    for (t, r, o), k in _leading([f["kids"] for f in tables]).items():
        k = min(k, every[t, r, o] * (r + 1) * (spread * r + 2) // 2)
        work += k * (parts * product(t, r) if branchy else product(1, t))
    return work


@lru_cache(maxsize=None)
def _pair_sums(c: int, v: int, spread: int, branchy: bool) -> tuple:
    """roots[r] of ``_pair_tables`` for parts of v values ``spread`` apart, the number
    of pairs t + r <= c, and its "closed" and "kids" entries summed over them."""
    roots = [min(comb(r + v - 1, r), r * spread + 1) for r in range(c + 1)]
    roots = list(accumulate(roots)) if branchy else roots
    kids = sum(k * (c - r + 1) for r, k in enumerate(roots)) if branchy else sum(roots)
    return roots, (c + 1) * (c + 2) // 2, sum(roots), kids


@lru_cache(maxsize=None)
def _pair_tables(c: int, v: int, spread: int, pi: int, branchy: bool) -> dict:
    """A type's pairs t + r <= c of groups whose parts take v values ``spread`` apart, at
    (t, r, pi r), as tables {(t, r, o): weight}: "pairs" one each, "by S" and "by T"
    signed by the parity of S and of T, "kids" the entries of kids(T + R) and "closed"
    those of kids(T) at t + r = c (``_pair_sums``' counts of (sum, count) pairs)."""
    roots, tables = _pair_sums(c, v, spread, branchy)[0], {}
    for s in range(c + 1):
        for t in range(s + 1):
            kids = roots[s - t] if branchy else roots[t] * (s == t)
            for name, k in (("pairs", 1), ("by S", (-1) ** (pi * s)), ("by T", (-1) ** (pi * t)),
                            ("kids", kids), ("closed", roots[t] * (s == c))):
                if k:
                    tables.setdefault(name, {})[t, s - t, pi * (s - t)] = k
    return tables


def _leading(tables) -> dict[tuple[int, int, int], int]:
    """The pairs whose T holds S's first group, by the totals: per type, its pairs with t
    >= 1 times every pair of the types after it."""
    got, suffix = {}, {(0, 0, 0): 1}
    for table in reversed(tables):
        for key, k in _by_size([{at: k for at, k in table.items() if at[0]}, suffix]).items():
            got[key] = got.get(key, 0) + k
        suffix = _by_size([table, suffix])
    return got


def _by_size(factors) -> dict[tuple[int, int, int], int]:
    """The product of per-type tables {(t, r, o): weight}, by the totals."""
    table = {(0, 0, 0): 1}
    for factor in factors:
        grown: dict[tuple[int, int, int], int] = {}
        for key, k in table.items():
            for more, m in factor.items():
                at = (key[0] + more[0], key[1] + more[1], key[2] + more[2])
                grown[at] = grown.get(at, 0) + k * m
        table = grown
    return table


def _fresh_states(scale: int) -> tuple:
    """Empty states of ``_wick_tree_sum`` at the common denominator Q = ``scale``: Q, the
    tags' ids (the empty one's 0) and their counter, the block weights, the ``dist``,
    ``down``, ``kids``, ``forests``, ``closed`` and ``sub`` values and the types."""
    return scale, {(): 0}, count(1), {}, {}, {}, {}, {}, {}, {}, {}


# The process's states, in a dict changed in place and never rebound.  A call whose common
# denominator does not divide Q puts fresh states at its larger Q in their place and never
# clears the old; each call computes with the states it read, and a tag's id comes from the
# counter, so threads that race (on the states, a state, a row or a tag) lose only work.
_wick_memo = {"memo": _fresh_states(1)}


def _wick_tree_sum(labels, types, counts: tuple[int, ...], reach: int) -> tuple[int, int]:
    """The Wick sum, divided by its pi power, over labelled groups: counts[h] groups of
    type h, each of which picks one (lam, coeff) of ``types[h]`` and contributes coeff;
    every part of lam is an element.  It sums over set partitions alpha of the elements
    complementary to the grouping, and per block of alpha over its cumulant's set
    partitions into sub-blocks and trees tau on them: (-1)^(#tau edges) prod W(s, p,
    delta), W(s, p, delta) = s!  frak_z(s - p + 2 - delta) Q^p for a sub-block of p
    parts summing to s and of tau-degree delta.  Both tree conditions say together that
    the graph with a vertex per group and per sub-block, an edge per element and one per
    tau edge, is a tree, which also keeps one part of each group per block.

    The tree is rooted at one group of type 0.  Groups of a type are interchangeable, so
    the sums run over multiplicity vectors S of groups, with binomial factors for the
    labels (``partitions.vector_splits``): ``dist(values, S)`` hangs S below the
    elements ``values`` of a group, each opening a sub-block; ``sub(w, S)`` is a
    sub-block entered through part w of its parent group, or for w = 0 through a tau
    edge (whose -1 it carries), with S below, of which its element children take T
    (``kids(T)``, per part sum and count (s, p); ``closed`` closes them with W) and its
    tau children R (``forests(R)``, per number k of planted sub-blocks ``sub(0, A)``);
    ``down(T)`` is a group entering through a part w with the rest of T below its other
    parts.  frak_z vanishes at odd arguments, and the terms of a type share the parity
    of |lam| - len(lam): so ``sub(w, S)`` is 0 unless w - 1 + pi(S) is even, pi(S) the
    parity of S's groups, forests(R) has cells only at k = pi(R) mod 2, and a sum of odd
    parity is 0 before any state.

    Every element carries one factor Q, a multiple of the common denominator of the
    caller's ``reach`` (2 + sum_h c_h (top part of type h - 1)), so every W is an
    integer.  The coefficients of type h are scaled by the lcm E_h of their
    denominators, and a term lam by Q^(L_h - len(lam)) for the longest term length L_h:
    the sum runs in integers, returned with prod_h (E_h Q^(L_h))^(c_h) for the caller to
    divide once.  A state is keyed by the labels and multiplicities of its S
    (``_Tags``), and type h's label fixes its terms: the generator k for
    f_cumulant_leading, the group partition for wick_leading and elementary_cumulant.
    So every call whose Q divides the memo's reads and adds to the same states, as it
    does a type's pad, scaled terms and entries (w, lam without one w, scaled coeff *
    mult_lam(w)), built per call, with no entries, for a lone group.
    """
    odd = [(sum(terms[0][0]) - len(terms[0][0])) % 2 for terms in types]
    if sum(map(mul, odd, counts)) % 2:
        return 0, 1
    memo = _wick_memo["memo"]
    if memo[0] % _common_denominator(reach):
        memo = _wick_memo["memo"] = _fresh_states(_common_denominator(reach))
    (scale, ids, fresh, weights, dist_memo, down_memo, kids_memo, forest_memo, closed_memo,
     sub_memo, type_memo) = memo
    # A lone group's type, with no entries, is per call: one large generator keeps no state.
    kept = type_memo if sum(counts) > 1 else {}
    held, denominator = [], 1  # per type: E_h Q^(L_h), scaled terms, entries, L_h > 1
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
            got = kept[label] = pads[longest], scaled, row, longest > 1
        held.append(got)
        denominator *= got[0] ** c
    _, scaled_types, entries, branchy = zip(*held)  # branchy: a group may root others
    tag = _Tags()
    tag.labels, tag.ids, tag.fresh = labels, ids, fresh

    def weight(s, p, degree):
        """W(s, p, delta) at delta = s - p mod 2, + 2, ... to ``degree`` (0 between), widened."""
        row = weights.get((s, p), ())
        if len(row) <= degree >> 1:
            lift, top = factorial(s) * scale**p, s - p + 2 - (s - p) % 2
            zs = map(frak_z_over_pi, range(top - 2 * len(row), top - 2 * (degree >> 1) - 1, -2))
            row += tuple(_quotient(lift * z.numerator, z.denominator) for z in zs)
            weights[s, p] = row
        return row

    def dist(values, S):
        key = (values, tag[S])
        if not key[1]:  # a product of closed sub-blocks, up to its first 0; kept by none
            got = 1
            for w in values:
                got = got and got * sub(w, S)
            return got
        if not values:
            return 0
        got = dist_memo.get(key)
        if got is None:
            head, rest = values[0], values[1:]
            if not rest:
                got = sub(head, S)
            else:
                got = 0
                for T, R, ways in vector_splits(S):
                    b = sub_memo.get((head, tag[T]))
                    b = sub(head, T) if b is None else b
                    if b:
                        d = dist(rest, R)
                        got += ways * b * d
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
                    for w, rest, coeff in row:
                        d = dist(rest, R)
                        if d:
                            by_part[w] = by_part.get(w, 0) + T[h] * coeff * d
            got = down_memo[key] = [(w, v) for w, v in by_part.items() if v]
        return got

    def kids(T):
        key = tag[T]
        if not key:
            return (((0, 0), 1),)
        got = kids_memo.get(key)
        if got is None:
            by_size: dict[tuple[int, int], int] = {}
            splits = vector_splits(T, True)  # without a branchy type, the first group is a child
            for T1, R, ways in splits if any(compress(branchy, T)) else splits[:1]:
                own = down(T1)
                if own:
                    below = kids(R)
                    for w, d in own:
                        d *= ways
                        for (s, p), e in below:
                            grown = (s + w, p + 1)
                            by_size[grown] = by_size.get(grown, 0) + d * e
            got = kids_memo[key] = tuple((k, v) for k, v in by_size.items() if v)
        return got

    def forests(R):
        key = tag[R]
        if not key:
            return ((0, 1),)
        got = forest_memo.get(key)
        if got is None:
            by_count: dict[int, int] = {}
            for A, rest, ways in vector_splits(R, True):
                planted = sub(0, A)
                if planted:
                    planted *= ways
                    for k, cell in forests(rest):
                        by_count[k + 1] = by_count.get(k + 1, 0) + planted * cell
            got = forest_memo[key] = tuple(sorted((k, v) for k, v in by_count.items() if v))
        return got

    def closed(w, T, row, degree):
        """``row`` of sum e W(s0 + s, p0 + p, .) over kids(T), for the (s0, p0)
        that ``w`` opens, widened to ``degree`` as a ``weight`` row."""
        (s0, p0), end = (w, 1) if w else (0, 0), (degree >> 1) + 1
        cells = [0] * (end - len(row))
        for (s, p), e in kids(T):
            own = weight(s0 + s, p0 + p, degree)[len(row):end]
            cells = list(map(add, cells, map(e.__mul__, own)))
        row = closed_memo[w, tag[T]] = row + tuple(cells)
        return row

    def sub(w, S):
        key = (w, tag[S])
        got = sub_memo.get(key)
        if got is None:
            got, d0 = 0, int(not w)
            if not key[1]:  # one part, closed at once (a planted one needs a child)
                got = weight(w, 1, 0)[0] if w % 2 else 0
            elif not (w - 1 + sum(map(mul, odd, S))) % 2:
                for T, R, ways in vector_splits(S)[0 if w else 1:]:  # a planted one has children
                    forest = forest_memo.get(tag[R]) or forests(R)
                    if forest:
                        top = d0 + forest[-1][0]
                        row = closed_memo.get((w, tag[T]), ())
                        row = closed(w, T, row, top) if len(row) <= top >> 1 else row
                        if top == d0:  # R = (), whose only forest has no tree
                            got += ways * row[d0 >> 1]
                        else:
                            got += ways * sum(cell * row[(d0 + k) >> 1] for k, cell in forest)
            got = sub_memo[key] = got if w else -got
        return got

    below_root = (counts[0] - 1,) + tuple(counts[1:])
    return sum(coeff * dist(lam, below_root) for lam, coeff in scaled_types[0]), denominator


class _Tags(dict):
    """S -> the id of its groups' labels and multiplicities: its states' key."""

    def __missing__(self, S):
        tag = tuple(compress(zip(self.labels, S), S))
        got = self[S] = self.ids.setdefault(tag, next(self.fresh))
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
    _check_work("Wick tree sum", *_group_figures(kinds, counts, reach))
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
    """f_cumulant_leading(key) / divisor for a sorted key, as one Fraction.  Its price
    (``check_generator_work``) is checked first, unless the reach is at most 20 and
    WICK_WORK_CAP is at least GENERATOR_PRICE_PIN, the most any such key is priced at."""
    if key[-1] < 2:
        raise DomainError("generator indices must be >= 2")
    kinds = sorted(set(key), reverse=True)
    counts, reach = tuple(map(key.count, kinds)), sum(key) - len(key) + 2  # f_k's top part is k
    if reach > 20 or WICK_WORK_CAP < GENERATOR_PRICE_PIN:
        check_generator_work(kinds, counts)
    if (sum(key) + len(key)) % 2:  # every term of f_k has |lam| - len(lam) of k + 1's parity
        return PiScalar(Fraction(0), reach)
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
def _generator_figures(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f_k's figures for ``_check_work``: the parts of its terms, increasing (1 to k - 2, and
    k), and from partition counts p, q(i) = p(i) - p(i - 1): q(k + 1) terms, q(k + 1 - jr)
    with r parts j, p(k - 1) entries, p(k + 1) tuples, at most (k + 1) // 2 parts in one,
    and |lam| - len(lam) = k + 1 - 2 len(lam) of the parity of k + 1."""
    values, p = (*range(1, k - 1), k), partition_counts(k + 1, WICK_WORK_CAP)
    if len(p) <= k + 1:
        return values, (0, 0, 0, 0, WICK_WORK_CAP + 1, 0, 0)
    q = [1] + [p[i] - p[i - 1] for i in range(1, k + 2)]
    parts = sum(q[k + 1 - j * r] for j in range(2, k + 2) for r in range(1, (k + 1) // j + 1))
    return values, (q[k + 1], parts, parts, p[k - 1], p[k + 1], (k + 1) // 2, (k + 1) % 2)


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
