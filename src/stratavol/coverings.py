"""Weighted counts of branched coverings of the torus.

A covering with branch profile m = (m_1, ..., m_s) is counted through the
character sum over partitions of the degree (the Burnside route, summed in
integers over central characters from Frobenius' formula in content form),
through its generating q-series, and, for small degrees, through direct
enumeration of monodromy tuples in the symmetric group.

The Burnside sum takes one of two routes per degree, which share no
formula for f_m.  When every cycle is at most 4, each central character
is a closed form linear in the content power sums p_1, p_2, p_3
(``characters.content_form``), so the sum is a combination of the
moments sum_{lam |- d} p_1^a p_2^b p_3^c.  These live in one table shared
by every profile for the life of the process, ``_columns``: one integer
column per monomial over the states (degree, largest part), each a
scalar recursion that removes the first row of a partition and reads
only earlier columns (``_grow_columns``).  A request grows only the
columns of its monomials, only through its degree, keeps nothing but
their values and visits no partition.  Otherwise, and for a short profile
whose sweep is priced cheaper, one sweep over the partitions of the
degree evaluates each cycle length once per partition by its rim-hook
residues (``characters.hook_value``), whatever its length.

A profile's monomials lie within bounds (``_moment_bounds``) whose last
monomial in growth order (``_monomials``), the corner, has top degree and
then top weight.  Bounds that hold a corner hold all its bounds'
monomials, and a growth stores columns in growth order, so the corner's
column never reaches past another of its bounds, threads included: its
length alone tells whether the table serves a degree.

One function prices the series through a row the table does not serve,
before any work, in the steps either route takes; that price is both the
route choice and the Burnside cap (``_route``).  Another does the work of
that route (``_fill``); a series is priced and routed once, at its top
row (``_rows``).  Connected counts come from the all-coverings series by
the exponential formula over sub-multisets of the branch points, in
integers (``cov_connected_series``), whose rows serve every sub-profile
they need; totals are memoized, so no degree is summed twice.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, repeat
from math import comb, factorial, inf, isqrt, prod
from operator import add, mul

from .characters import CONTENT_POLY_MAX_M, beta_numbers, content_form, hook_value
from .errors import DomainError, ResourceCapError, as_int, as_order
from .partitions import (
    iter_int_partitions,
    length_sums,
    partition_sums,
    set_partitions_of,
    vector_splits,
)
from .qseries import QSeries, euler_series, lead, product_into

# The most steps (``brute_force_work``) of one brute-force request, all
# degrees up to its --dmax, at a few microseconds a step: the (6!)^2 pairs
# of degree 6 are over it, and `covers 5,5,5 --dmax 5 --brute-force` is 49k.
BRUTE_FORCE_WORK_CAP = 5 * 10**5
# The most steps of the route of a Burnside row, priced as the series
# through it (``_route``): 0.09-0.14 us a step cold on either route (2-core
# Xeon, Python 3.11), up to 0.3 us for many equal short cycles.
BURNSIDE_WORK_CAP = 10**7
# Most multiply-adds the exponential formula of one connected series may
# make, counted before any Burnside sum as its (b, T) first-block pairs,
# at most prod (c + 1)(c + 2) / 2 for the multiplicities c, times the
# (order + 1)(order + 2) / 2 of one series product.  At 0.5-1.7 us a
# multiply-add on a 2-core Xeon with Python 3.11 (the binomial weights of
# many equal cycles are long integers), a request at the cap takes under
# a second: four hundred 2s to order 2 (483,606) took 0.63 s, while a
# thousand (3.0 million) took 11 s.
CONNECTED_WORK_CAP = 5 * 10**5


class CoverProfile(tuple):
    """Branch point types: one cycle length >= 2 per marked point.

    The order of entries is preserved; points are labeled.
    """

    def __new__(cls, entries: Iterable[int] = ()):
        items = tuple(map(as_int, entries))
        for e in items:
            if e < 2:
                raise DomainError(f"profile entries must be >= 2, got {e}")
        return super().__new__(cls, items)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self)


def _profile(profile) -> CoverProfile:
    return profile if isinstance(profile, CoverProfile) else CoverProfile(profile)


# Burnside totals by (sub-profile sorted longest cycle first, degree), for
# the life of the process, each the ``Fraction`` that ``cov_d`` returns,
# built once where its integer sum is stored.  Either route stores every
# sub-multiset of the key it fills at each degree it sums, so whenever a
# profile is here, every sub-profile that can sum to nonzero is too, and
# one that is not reads 0.  A key is stored only once its total is
# complete, so ``cov_d`` returns a held row from one lookup, building
# nothing.
_burnside_totals: dict[tuple[tuple[int, ...], int], Fraction] = {}
_ZERO = Fraction(0)


def _burnside_sums(profile: Sequence[int], d: int) -> Fraction:
    """The sum over partitions lam of d of the product of the central
    characters f_m(lam) over the entries m of the profile (``_fill``),
    memoized in ``_burnside_totals`` as the ``Fraction`` of its integer
    sum: the number of partitions of d for the empty profile, and 0 with
    no work when a cycle is longer than d, since f_m vanishes at every
    partition of d < m."""
    key = tuple(sorted(profile, reverse=True))
    if key and key[0] > d:
        return _ZERO
    total = _burnside_totals.get((key, d))
    if total is None:
        _fill(key, d)
        total = _burnside_totals[key, d]
    return total


def _fill(key: tuple[int, ...], d: int, series: bool = False) -> None:
    """Sum the missing rows of ``key`` and its sub-profiles at d or, with
    ``series``, through d (below the longest cycle, those of the cycles
    that fit), by the route ``_route`` prices: a sweep per row, or a growth
    of the columns and a dot product per row (``_moment_sums``), for a lone
    row also the rows the growth adds."""
    top = key[0] if key and series else 0
    rows = [(fit, n) for n in range(0 if series else d, d + 1)
            for fit in [key if n >= top else tuple(m for m in key if m <= n)]
            if (fit, n) not in _burnside_totals]
    if rows and not _route(key, d):
        for row in rows:
            _sweep(*row)
    elif rows:
        held = _held(key)
        if held < d:
            _grow_columns(_moment_bounds(key), d)
            if not series:
                rows[:0] = [(key, n) for n in range(max(held + 1, key[0] if key else 0), d)
                            if (key, n) not in _burnside_totals]
        for row in rows:
            _moment_sums(*row)


@lru_cache(maxsize=None)
def _sub_profiles(key: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[tuple[int, int, int]]]:
    """Every sorted sub-multiset of ``key`` (prod (c + 1) of them for the
    multiplicities c), each after the one with its last cycle dropped, and
    the steps (index, index of that parent, last cycle) that build each
    nonempty one from its parent; memoized, so only read."""
    subs = [()]
    for m, c in sorted(Counter(key).items(), reverse=True):
        subs = [sub + (m,) * k for sub in subs for k in range(c + 1)]
    slot = {sub: i for i, sub in enumerate(subs)}
    return subs, [(i, slot[sub[:-1]], sub[-1]) for i, sub in enumerate(subs) if sub]


def _sweep(key: tuple[int, ...], d: int) -> None:
    """Store in ``_burnside_totals`` the Burnside sum at degree d of every
    sorted sub-multiset of ``key`` (longest cycle first), from one pass over
    the partitions of d.  At each lam the beta numbers are computed once,
    and each distinct cycle length m once, by the residue sum over
    removable m-rim hooks (``characters.hook_value``, 0 when m > d): the
    sweep reads no closed form.  Each sub-multiset then costs one product,
    its value without its last cycle times the value of that cycle."""
    subs, plan = _sub_profiles(key)
    lengths = sorted(set(key), reverse=True)
    f = [0] * (key[0] + 1 if key else 0)
    values = [1] * len(subs)
    totals = [0] * len(subs)
    for lam in iter_int_partitions(d):
        totals[0] += 1
        beta = beta_numbers(lam)
        beta_set = set(beta)
        for m in lengths:
            f[m] = hook_value(m, beta, beta_set)
        for i, parent, m in plan:
            value = values[parent] * f[m]
            values[i] = value
            totals[i] += value
    for sub, total in zip(subs, totals):
        _burnside_totals[sub, d] = Fraction(total)


# ---------------------------------------------------------------------------
# Burnside sums of short cycles from content moments
# ---------------------------------------------------------------------------


def _moment_bounds(key: tuple[int, ...]) -> tuple[int, int, int]:
    """The monomials p_1^a p_2^b p_3^c the product of the closed forms of
    the cycles of ``key`` (each 2..4) reaches, with those of all its
    sub-profiles: c at most the number of 4-cycles, b + c at most that of
    3- and 4-cycles, and a + b + c at most that of all cycles.  The passes
    of ``_grow_columns`` keep within these bounds."""
    k4 = key.count(4)
    k34 = k4 + key.count(3)
    return k4, k34, k34 + key.count(2)


@lru_cache(maxsize=None)
def _monomials(bounds: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """The monomials (a, b, c) within ``bounds``, by degree a + b + c and
    then by weight a + 2b + 3c: every pass term of a monomial other than
    the monomial itself comes earlier in this order (``_plan``)."""
    top3, top23, top = bounds
    monomials = [(a, b, c) for c in range(top3 + 1) for b in range(top23 - c + 1)
                 for a in range(top - b - c + 1)]
    return tuple(sorted(monomials, key=lambda e: (sum(e), e[0] + 2 * e[1] + 3 * e[2])))


def _monomial_terms(bounds: tuple[int, int, int]) -> tuple[int, int]:
    """The number of monomials within ``bounds`` and the multiply-adds
    their columns make per state, listing none.  The column of (a, b, c)
    makes one for its sum and e + 1 for each pass that changes an exponent
    e > 0 (one pass for a, two for b, three for c): the monomial itself and
    e earlier ones.  For c <= top3 and b <= B = top23 - c, the a <= A =
    T - b, T = top - c, make (A + 1)(1 + [b > 0](2b + 2) + [c > 0](3c + 3))
    + A (A + 3) / 2; over b, A (A + 3) / 2 sums to F(T) - F(T - B - 1),
    F(n) = n (n + 1)(n + 5) / 6, and (A + 1)(2b + 2) to (T + 1) B (B + 3)
    - 2 B (B + 1)(B + 2) / 3."""
    top3, top23, top = bounds
    count = terms = 0
    for c in range(top3 + 1):
        B, T = top23 - c, top - c
        n = (B + 1) * (T + 1) - B * (B + 1) // 2
        count += n
        terms += (n * (1 + (c and 3 * c + 3)) + T * (T + 1) * (T + 5) // 6
                  - (T - B - 1) * (T - B) * (T - B + 4) // 6
                  + (T + 1) * B * (B + 3) - 2 * B * (B + 1) * (B + 2) // 3)
    return count, terms


# The passes of the row map in the order they are taken: the shears
# x_i -> x_i + beta x_j as (i, j, beta), then the translations
# x_i -> x_i + alpha_i as (i, None, None), for x = (p_1, p_2, p_3).
_PASSES = ((2, 0, 3), (2, 1, -3), (1, 0, -2), (0, None, None), (1, None, None), (2, None, None))


@lru_cache(maxsize=None)
def _plan(e: tuple[int, int, int]) -> tuple[tuple, ...]:
    """Per pass, the terms of the image of x^e other than x^e itself, as
    (source monomial, weight): x_i^e_i -> sum_{t < e_i} C(e_i, t) x_i^t
    y^(e_i - t) reads the monomial with x_i^t and, for a shear y = beta
    x_j, x_j^(e_i - t) more, at the weight C(e_i, t) beta^(e_i - t); for a
    translation y = alpha_i the weight is (i, e_i - t, C(e_i, t)), a
    different number at every state."""
    plan = []
    for i, j, beta in _PASSES:
        k = e[i]
        terms = []
        for t in range(k):
            src = list(e)
            src[i] = t
            if j is None:
                terms.append((tuple(src), (i, k - t, comb(k, t))))
            else:
                src[j] += k - t
                terms.append((tuple(src), comb(k, t) * beta ** (k - t)))
        plan.append(tuple(terms))
    return tuple(plan)


# The content moments sum_{lam |- n, lam_1 <= b} p_1^a p_2^b p_3^c, one
# integer column per monomial (a, b, c) over the states (n, b), 0 <= b <= n,
# row by row at index n (n + 1) / 2 + b, so a column of (n + 1)(n + 2) / 2
# entries is complete through degree n.  Shared by every profile and kept
# for the life of the process.  A column is only ever replaced, under the
# lock, by a longer one whose new rows are complete, and never changed in
# place, so two threads that grow one column at once only compute the same
# cells twice, and no bounds' corner reaches past another of its columns.
_columns: dict[tuple[int, int, int], list[int]] = {}
_columns_lock = threading.Lock()


def _degree(size: int) -> int:
    """The degree a column of ``size`` entries is complete through (-1
    when empty)."""
    return (isqrt(8 * size + 1) - 3) // 2


def _held(key: tuple[int, ...]) -> int:
    """The degree the column of the corner of the bounds of ``key`` holds."""
    top3, top23, top = _moment_bounds(key)
    return _degree(len(_columns.get((top - top23, top23 - top3, top3), ())))


# For the states (n, b), 1 <= b <= n, of rows 1 through the largest degree
# grown, at n (n - 1) / 2 + b - 1: the index of the state (n - b, min(b,
# n - b)) each builds on and the three translations alpha of the row map,
# each computed once: the four lists only grow, under the lock.
_target_table: list = [[], ([], [], [])]


def _targets(lo: int, d: int) -> tuple[list[int], tuple[list[int], list[int], list[int]]]:
    """The ``_target_table`` entries of rows lo + 1..d."""
    pairs = [(n - b, b) for n in range(lo + 1, d + 1) for b in range(1, n + 1)]
    s1 = [b * (b - 1) // 2 for _, b in pairs]
    return [m * (m + 1) // 2 + min(b, m) for m, b in pairs], (
        [s - m for s, (m, _) in zip(s1, pairs)],
        [(b - 1) * b * (2 * b - 1) // 6 + m for m, b in pairs],
        [s * s - m for s, (m, _) in zip(s1, pairs)],
    )


def _grow_columns(bounds: tuple[int, int, int], d: int) -> None:
    """Extend the column of every monomial of ``_monomials(bounds)`` in
    ``_columns`` through degree d, storing them in that order, so the
    bounds' corner last.

    V(n, b) is the vector of moments over the partitions of n with largest
    part at most b, so V(n, n) is the table at n.  A partition with largest
    part b is the row (b) over a partition mu of n - b with parts at most
    b, whose boxes move one row down, so p_k((b) u mu) = sum_{0<=c<b} c^k
    + sum over the boxes of mu of (c-1)^k:

        p_1 -> p_1 + s_1 - |mu|
        p_2 -> p_2 - 2 p_1 + s_2 + |mu|
        p_3 -> p_3 - 3 p_2 + 3 p_1 + s_3 - |mu|,

    affine in mu's power sums.  So V(n, b) = V(n, b - 1) + T S V(n - b, b'),
    b' = min(b, n - b), where S is the shears p_3 -> p_3 + 3 p_1,
    p_3 -> p_3 - 3 p_2 and p_2 -> p_2 - 2 p_1 and T the translations by
    s_k -+ |mu|, six passes that each rewrite a monomial x^e through
    (x + y)^e = sum_t C(e, t) x^t y^(e-t).  The term t = e is the monomial
    itself and every other term an earlier one (``_plan``), so each column
    is one scalar recursion

        V_e(n, b) = V_e(n, b - 1) + V_e(n - b, b') + R_e(n, b),

    where R_e, what the passes add from earlier columns, is gathered over
    all states at once, one list per pass.  Each pass reads the inputs of
    earlier columns, their values after the passes before it, at the states
    (n, b), b >= 1, of rows lo + 1..d, lo the least degree the bounds hold,
    the corner's (``_held``).  So every column extended or read runs its
    passes over those states; only the columns are stored, each once its
    new rows are complete.
    """
    monomials = _monomials(bounds)
    with _columns_lock:
        held = [_columns.get(e, ()) for e in monomials]
    have = [_degree(len(col)) for col in held]
    lo = min(have)
    if lo >= d:
        return
    end = d * (d + 1) // 2  # the states (n, b), b >= 1, through row d
    srcs, alphas = _target_table
    if len(srcs) < end:
        start = len(srcs)
        new_srcs, new_alphas = _targets((isqrt(8 * start + 1) - 1) // 2, d)
        with _columns_lock:  # the index list last: its length is read unlocked
            for table, new in zip((*alphas, srcs), (*new_alphas, new_srcs)):
                table.extend(new[len(table) - start:])  # less another growth's
    base = lo * (lo + 1) // 2
    srcs, alphas = srcs[base:end], [a[base:end] for a in alphas]
    weights: dict[tuple[int, int, int], list[int]] = {}
    read: set[tuple[int, int, int]] = set()  # what the passes that run read
    for e, n_e in zip(reversed(monomials), reversed(have)):
        if n_e < d or e in read:
            read.update(f for terms in _plan(e) for f, _ in terms)
    # monomial -> its values before each pass, at every state
    inputs: dict[tuple[int, int, int], list[list[int]]] = {}
    for e, col, n_e in zip(monomials, held, have):
        if n_e >= d and e not in read:
            continue
        plan = _plan(e)
        fresh, added = [], None
        for k, terms in enumerate(plan):
            if terms:
                parts = []
                for f, w in terms:
                    if isinstance(w, int):
                        parts.append(map(mul, repeat(w), inputs[f][k]))
                    else:
                        weight = weights.get(w)
                        if weight is None:
                            i, power, binomial = w
                            weight = weights[w] = [binomial * x ** power for x in alphas[i]]
                        parts.append(map(mul, weight, inputs[f][k]))
                if added is not None:
                    parts.append(added)
                added = list(map(sum, zip(*parts)) if len(parts) > 1 else parts[0])
            fresh.append(added)
        if n_e < d:
            col = list(col) if col else [int(not any(e))]
            for n in range(max(n_e, 0) + 1, d + 1):
                at = n * (n - 1) // 2 - base
                values = map(col.__getitem__, srcs[at:at + n])
                if added is not None:
                    values = map(add, values, added[at:at + n])
                col.extend(accumulate(values, initial=0))
            with _columns_lock:
                if len(col) > len(_columns.get(e, ())):
                    _columns[e] = col
        if e in read:
            start = list(map(col.__getitem__, srcs))
            ins = [start]
            for terms, s in zip(plan[:-1], fresh):
                ins.append(list(map(add, start, s)) if terms else ins[-1])
            inputs[e] = ins


def _route(key: tuple[int, ...], d: int) -> bool:
    """The route of the Burnside sums of ``key`` and its sub-profiles
    through degree d, which is also their cap: True by content moments,
    False by the sweep, ResourceCapError when neither is admitted; it only
    prices (``_fill`` does the work).  Columns that hold d serve at no cost
    (``_held``).  Otherwise the series through d is priced before any work
    in the steps each route takes; the cheaper goes when at most
    ``BURNSIDE_WORK_CAP``, the moments on a tie.  Per partition lam of each
    n <= d, a sweep takes 2 l(lam) for the beta numbers and their set, per
    distinct cycle length m a ``hook_value`` scan of l(lam) and a loop of
    l(lam) per removable m-rim hook, and a product per sub-profile, prod
    (c + 1) for the multiplicities c; per row, f and a value, a total and
    a store per sub-profile.  A partition mu of n - m has m more addable
    m-rim hooks than removable ones, each adding at most m rows, so from
    the sums of p(n) and l(lam) (``length_sums``) the hook loops at n are at
    most those at n - m plus m sum l(mu) + m (m + 1) p(n - m) / 2.  The
    moments (cycles up to ``CONTENT_POLY_MAX_M``) take, over the states the
    corner adds, a value per monomial and column-state and, per state with
    b >= 1, six ``_targets`` values, every column's multiply-adds
    (``_monomial_terms``) and a value per translation weight (i, k - t,
    C(k, t)), t < k <= the bound of exponent i."""
    sweep = moments = inf
    if not key or key[0] <= CONTENT_POLY_MAX_M:
        bounds, held = _moment_bounds(key), _held(key)
        if held >= d:
            return True
        new = d * (d + 1) // 2 - held * (held + 1) // 2  # states with b >= 1
        count, terms = _monomial_terms(bounds)
        moments = count * (new + d - held) + new * (6 + terms + sum(k * (k + 1) // 2 for k in bounds))
    parts, sums = length_sums(d, BURNSIDE_WORK_CAP), partition_sums(d, BURNSIDE_WORK_CAP)
    subs, lengths = prod(c + 1 for c in Counter(key).values()), set(key)
    if d < len(parts):
        sweep = (2 + len(lengths)) * parts[d] + subs * sums[d] + sum(
            m * parts[n] + m * (m + 1) // 2 * sums[n] for m in lengths for n in range(d % m, d, m))
        sweep += (d + 1) * (max(key, default=0) + 1 + 3 * subs)
    if min(sweep, moments) > BURNSIDE_WORK_CAP:
        raise ResourceCapError(f"Burnside work up to degree {d} exceeds cap {BURNSIDE_WORK_CAP} "
                               f"steps: the sweep {sweep} ({subs} sub-profiles), the moments "
                               f"{moments} (inf: no such route, or past the cap)")
    return moments <= sweep


def _moment_sums(key: tuple[int, ...], d: int) -> None:
    """Store in ``_burnside_totals`` the Burnside sum at degree d of every
    sorted sub-multiset of ``key`` (cycles 2..4, longest first): the
    product of the closed forms of its cycles (``characters.content_form``)
    expanded in monomials, dotted with the content moments of the
    partitions of d, read at the state (d, d) of ``_columns``, which reach
    degree d for the bounds of ``key`` (``_fill``); no partition is
    visited.  A monomial p_1^a p_2^b p_3^c is keyed by a + r b + r^2 c for
    an r above every exponent, so multiplying by p_k adds r^(k - 1)."""
    last = d * (d + 3) // 2
    subs, plan = _sub_profiles(key)
    r = len(key) + 1
    moments = {a + r * (b + r * c): _columns[a, b, c][last]
               for a, b, c in _monomials(_moment_bounds(key))}
    polys: list[dict[int, int]] = [{0: 1}] * len(subs)
    for i, parent, m in plan:
        a0, a1, a2, a3 = content_form(m, d)
        poly: dict[int, int] = {}
        get = poly.get
        for mono, x in polys[parent].items():
            if a0:
                poly[mono] = get(mono, 0) + a0 * x
            if a1:
                poly[mono + 1] = get(mono + 1, 0) + a1 * x
            if a2:
                poly[mono + r] = get(mono + r, 0) + a2 * x
            if a3:
                poly[mono + r * r] = get(mono + r * r, 0) + a3 * x
        polys[i] = poly
    for sub, poly in zip(subs, polys):
        total = sum(map(mul, poly.values(), map(moments.__getitem__, poly)))
        _burnside_totals[sub, d] = Fraction(total)


def cov_d(profile, d: int) -> Fraction:
    """Weighted number of degree-d coverings with the given branch profile:
    the sum over partitions lam of d of the product of central characters,
    summed in integers and held as one ``Fraction`` (``_burnside_sums``), by
    content moments or by a sweep over the partitions of d, whichever
    ``_route`` prices cheaper for the series through d; ResourceCapError
    before any work when neither is under the Burnside cap.  A cold row
    sums and memoizes all prod (c + 1) sub-profiles, for the multiplicities
    c of its cycles.

    The empty profile counts all unramified coverings, one per partition
    of d.

    A tuple (a ``CoverProfile`` too) whose row is held, sorted longest
    cycle first, is read from ``_burnside_totals`` with no check and no
    arithmetic: the stored ``Fraction`` itself is returned.  Only checked
    keys with every cycle at most d >= 0 are stored, each once its total
    is complete, so an entry or degree equal to an integer (4.0) reads its
    row, as the check would.  Another tuple pays one failed lookup; one
    holding an unhashable entry raises TypeError there, as the check
    would.  A row whose longest cycle is past d is never stored: after the
    failed lookup and the checks it is 0, with no work.
    """
    if isinstance(profile, tuple):
        total = _burnside_totals.get((profile, d))
        if total is not None:
            return total
    profile, d = _profile(profile), as_order(d, "degree")
    return _burnside_sums(profile, d)


def cov_series(profile, order: int) -> QSeries:
    """Generating series sum_d cov_d(profile) q^d, truncated: the rows of
    the CLI's ``covers``, priced and routed once as one series (``_rows``)."""
    profile, order = _profile(profile), as_order(order)
    return QSeries(_rows(profile, order))


def _rows(profile: CoverProfile, order: int) -> list[int]:
    """The Burnside sums of degrees 0..order, priced and routed once."""
    key = tuple(sorted(profile, reverse=True))
    _fill(tuple(m for m in key if m <= order), order, True)
    return [_burnside_totals.get((key, d), 0).numerator for d in range(order + 1)]


def cov_prime_series(profile, order: int) -> QSeries:
    """Series for coverings without unramified connected components:
    the raw covering series times prod (1 - q^n)."""
    profile, order = _profile(profile), as_order(order)
    return euler_series(order) * cov_series(profile, order)


def cov_connected_series(profile, order: int) -> QSeries:
    """Series counting connected coverings, from the no-unramified series
    by the exponential formula over sub-multisets of the branch points.

    A covering without unramified components is a disjoint union of
    connected ones, each holding a block of the labelled points, and a
    block's series depends only on its sorted sub-profile.  So
    prime(b) = sum ways conn(T) prime(b - T) over the blocks T holding
    the first point (``partitions.vector_splits``), solved for conn(b)
    for every sub-multiplicity vector b in order of |b|, in integers.

    A cycle longer than ``order`` leaves no connected covering through
    that order, so the series is zero with no work.  Otherwise the
    formula's work is checked against ``CONNECTED_WORK_CAP``, and the
    blocks' series come from the profile's rows (``_rows``), priced once
    before any is summed.
    """
    profile, order = _profile(profile), as_int(order)
    if not profile:
        raise DomainError("connected counts need at least one branch point")
    if order < 0:
        raise DomainError("order must be nonnegative")
    if max(profile) > order:
        return QSeries.zero(order)
    lengths = sorted(set(profile), reverse=True)
    counts = tuple(profile.count(m) for m in lengths)
    work = prod((c + 1) * (c + 2) // 2 for c in counts) * ((order + 1) * (order + 2) // 2)
    if work > CONNECTED_WORK_CAP:
        raise ResourceCapError(
            f"connected series work {work} up to order {order} exceeds cap {CONNECTED_WORK_CAP}")
    _rows(profile, order)
    euler = lead([int(c) for c in euler_series(order).coeffs])
    vectors = sorted((T for T, _, _ in vector_splits(counts)), key=sum)
    prime: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    conn: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    for b in vectors[1:]:
        key = tuple(m for m, k in zip(lengths, b) for _ in range(k))
        raw = [_burnside_totals.get((key, d), 0).numerator for d in range(order + 1)]
        prime[b] = lead(product_into([0] * (order + 1), 1, euler, lead(raw)))
        total = list(prime[b][1])
        for T, R, ways in vector_splits(b, True):
            if any(R):
                product_into(total, -ways, conn[T], prime[R])
        conn[b] = lead(total)
    return QSeries(conn[counts][1])


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


def brute_force_work(profile, dmax: int, connected: bool = False) -> int:
    """The steps of ``brute_force_hom_count`` up to degree dmax, from the
    longest cycle on, until the pairs pass ``BRUTE_FORCE_WORK_CAP``: (d!)^2
    pairs (d^2 past the cap), then per tally key (an even commutator, and
    an orbit partition, Bell(d), if connected) each class but the last."""
    profile = _profile(profile)
    total = 0
    for d in range(max(profile, default=1), dmax + 1):
        total += factorial(d) ** 2 if d * d <= BRUTE_FORCE_WORK_CAP else d * d
        if total > BRUTE_FORCE_WORK_CAP:
            break
        orbits = sum(1 for _ in set_partitions_of(range(d))) if connected else 1
        keys = (factorial(d) + 1) // 2 * orbits
        for m in profile[:-1]:
            keys *= comb(d, m) * factorial(m - 1)
        total += keys
    return total


def check_brute_force_caps(profile, dmax: int, connected: bool = False) -> None:
    """Raise ResourceCapError when ``brute_force_work`` is over its cap."""
    work = brute_force_work(profile, dmax, connected)
    if work > BRUTE_FORCE_WORK_CAP:
        raise ResourceCapError(f"brute-force work {work} up to degree {dmax} exceeds cap "
                               f"{BRUTE_FORCE_WORK_CAP}")


def _orbit_cycles(gens: Sequence[Perm], d: int) -> Perm:
    """A permutation whose cycles are the orbits of the group generated by
    ``gens``: each orbit, sorted, is one cycle.  With any more generators,
    it generates a transitive group exactly when ``gens`` do with them."""
    out = list(range(d))
    seen = [False] * d
    for start in range(d):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        orbit.sort()
        for x, y in zip(orbit, orbit[1:] + orbit[:1]):
            out[x] = y
    return tuple(out)


def _is_transitive(gens: Sequence[Perm], d: int) -> bool:
    """Whether ``gens`` generate a transitive group on {0..d-1}: whether
    the orbit of 0, the cycle of 0 in ``_orbit_cycles``, is all of it."""
    return _orbit_cycles(gens, d) == tuple(range(1, d)) + (0,)


def brute_force_hom_count(profile, d: int, connected_only: bool = False) -> Fraction:
    """Count monodromy tuples (a, b, g_1, ..., g_s) with g_i in the i-th
    branch class and a b a^-1 b^-1 g_1 ... g_s = id, divided by d!.

    With ``connected_only`` the generated subgroup must act transitively.
    Enumerates the pairs (a, b) and tallies them by their commutator and,
    for a transitive count, by ``_orbit_cycles`` of (a, b): the tuples a
    pair completes depend on nothing else.  Then, once per tally key, it
    enumerates all but the last branch element, solving for the last one.
    The division by d! reproduces the weighting of coverings by the
    reciprocal of their automorphism group order.  The cap is that of a
    request for degrees 1..d (``check_brute_force_caps``).
    """
    profile, d = _profile(profile), as_int(d)
    if d < 1:
        raise DomainError("degree must be positive")
    check_brute_force_caps(profile, d, connected_only)
    for m in profile:
        if m > d:
            return Fraction(0)

    perms = list(permutations(range(d)))
    classes = [_class_elements(d, m) for m in profile]
    s = len(profile)
    last_type = ((profile[-1],) + (1,) * (d - profile[-1])) if s else None
    identity = tuple(range(d))

    tally: dict[tuple[Perm, Perm | None], int] = {}
    for a in perms:
        a_inv = _inverse(a)
        for b in perms:
            # commutator a b a^-1 b^-1
            w = _compose(_compose(a, b), _compose(a_inv, _inverse(b)))
            key = (w, _orbit_cycles((a, b), d) if connected_only else None)
            tally[key] = tally.get(key, 0) + 1

    count = 0
    for (w, orbits), pairs in tally.items():
        joined = (orbits,) if connected_only else ()
        if s == 0:
            if w == identity and (not connected_only or _is_transitive(joined, d)):
                count += pairs
            continue

        def rec(i: int, prefix: Perm, chosen: tuple[Perm, ...]) -> int:
            if i == s - 1:
                g_last = _inverse(prefix)
                if _cycle_type(g_last) != last_type:
                    return 0
                if connected_only and not _is_transitive(joined + chosen + (g_last,), d):
                    return 0
                return 1
            acc = 0
            for g in classes[i]:
                acc += rec(i + 1, _compose(prefix, g), chosen + (g,))
            return acc

        count += pairs * rec(0, w, ())
    return Fraction(count, factorial(d))


def asymptotic_ratio(profile, D: int) -> Fraction:
    """Finite-degree version of the normalized partial sums whose limit is
    the leading constant of connected covering counts:

        (|m|+1) * D^(-|m|-1) * sum_{d<=D} (connected count at degree d).

    Exact rational; the caller compares it against the limit evaluated at a
    high-precision rational approximation of pi.
    """
    profile, D = _profile(profile), as_int(D)
    if D < 1:
        raise DomainError("degree bound must be >= 1")
    total_weight = sum(profile)
    series = cov_connected_series(profile, D)
    partial = sum(c.numerator for c in series.coeffs[1:])  # integer counts
    return Fraction((total_weight + 1) * partial, D ** (total_weight + 1))
