"""Integer partitions and set partitions with their lattice operations.

Integer partitions are weakly decreasing tuples of positive integers.  Set
partitions of {1..n} are kept in a canonical form (blocks sorted by their
minimum, elements ascending) and enumerated through restricted-growth
strings, which gives a deterministic order.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from math import comb, factorial

from .errors import DomainError, Record, ResourceCapError, as_int

# Largest ground set the set-partition enumerations accept: Bell(12) is
# about 4.2 million partitions.
SET_PARTITION_CAP = 12


class IntPartition(tuple):
    """A partition of a nonnegative integer: parts sorted descending."""

    def __new__(cls, parts: Iterable[int] = ()):
        items = sorted(map(as_int, parts), reverse=True)
        for p in items:
            if p <= 0:
                raise DomainError(f"partition parts must be positive, got {p}")
        return super().__new__(cls, items)

    @classmethod
    def _make(cls, parts: tuple[int, ...]) -> "IntPartition":
        # Fast path for tuples already sorted descending.
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def __repr__(self) -> str:
        return f"IntPartition({list(self)})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"


def iter_int_partitions(d: int) -> Iterator[IntPartition]:
    """Stream all partitions of d in descending lexicographic order.

    Iterative algorithm ZS1 (Zoghbi-Stojmenovic 1998): x[1..m] holds the
    current partition with x[i] = 1 beyond h, the last part above 1; the
    next partition lowers x[h] by one and packs what it freed, and the 1s
    after it, into parts of that size followed by a remainder.
    """
    if d < 0:
        raise DomainError("cannot partition a negative integer")
    if d == 0:
        yield IntPartition._make(())
        return
    x = [1] * (d + 1)
    x[1] = d
    m = h = 1
    yield IntPartition._make((d,))
    while x[1] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield IntPartition._make(tuple(x[1 : m + 1]))


def enum_int_partitions(d: int) -> list[IntPartition]:
    """All partitions of d, each once, in descending lexicographic order."""
    return list(iter_int_partitions(d))


# p(0), p(1), ... by Euler's pentagonal recurrence
#   p(n) = sum_{k>=1} (-1)^(k-1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)),
# and the running sums of p(n) and of the parts of all partitions of n.
_partition_counts = [1]
_partition_sums = [1]
_length_sums = [0]
_partition_lock = threading.Lock()


def partition_counts(dmax: int, cap: float) -> list[int]:
    """The memoized counts p(0), p(1), ...: grown through degree dmax, or
    only to the first count over ``cap`` (every later one is larger too).
    The list is shared; callers only read it."""
    counts, sums, lengths = _partition_counts, _partition_sums, _length_sums
    with _partition_lock:
        while len(counts) <= dmax and counts[-1] <= cap:
            n = len(counts)
            counts.append(sum(
                (1 if k % 2 else -1) * counts[n - g]
                for k in range(1, n + 1) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
                if g <= n
            ))
            sums.append(sums[-1] + counts[-1])
            lengths.append(lengths[-1] + sum(
                counts[n - j * k] for j in range(1, n + 1) for k in range(1, n // j + 1)))
    return counts


def partition_sums(dmax: int, cap: float) -> list[int]:
    """The running sums p(0) + ... + p(n) of ``partition_counts(dmax,
    cap)``, as far as it grows them; shared, so callers only read it."""
    partition_counts(dmax, cap)
    return _partition_sums


def length_sums(dmax: int, cap: float) -> list[int]:
    """The running sums over n of sum_{lam |- n} l(lam) = sum_{j, k >= 1}
    p(n - jk), grown with ``partition_counts(dmax, cap)``; only read it."""
    partition_counts(dmax, cap)
    return _length_sums


def check_partition_work(dmax: int, cap: int, what: str) -> int:
    """The partitions a sweep over every degree 0..dmax visits; raise
    ResourceCapError when that is more than ``cap``.  The counts and their
    running sums are memoized and grown at most to the first count past
    the cap, so the check is a lookup after its first call for any dmax."""
    sums = partition_sums(dmax, cap)
    d = bisect_right(sums, cap)
    if d <= dmax:
        raise ResourceCapError(
            f"{what} work up to degree {dmax} exceeds cap {cap} "
            f"partitions ({sums[d]} by degree {d})"
        )
    return sums[dmax] if dmax >= 0 else 0


def enum_partitions_of_weight(w: int) -> list[IntPartition]:
    """All partitions lam with size(lam) + length(lam) = w, ordered by
    length and then lexicographically.

    These are mu - (1, ..., 1) for the partitions mu of w into parts >= 2,
    which are generated in ascending form by Kelleher's AccelAsc with the
    smallest part raised to 2.  Empty for w = 1 (a nonempty partition has
    weight at least 2).
    """
    if w < 1:
        raise DomainError("weight must be >= 1")
    out: list[IntPartition] = []
    if w < 2:
        return out
    a = [0] * (w + 1)  # a[:k] ascending parts; y is left for the rest
    a[0] = 1
    k, y = 1, w - 2
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        while x <= y:
            out.append(IntPartition._make((y - 1, x - 1) + tuple(p - 1 for p in reversed(a[:k]))))
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        out.append(IntPartition._make(tuple(p - 1 for p in reversed(a[:k + 1]))))
    out.sort()
    out.sort(key=len)
    return out


# ---------------------------------------------------------------------------
# Set partitions
# ---------------------------------------------------------------------------

Blocks = tuple[tuple[int, ...], ...]


class SetPartition(Record):
    """A partition of the ground set {1..n} into disjoint nonempty blocks,
    kept with each block ascending and the blocks sorted by their minimum."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks: Iterable[Iterable[int]], n: int) -> None:
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise DomainError("empty block in set partition")
            for x in b:
                if x in seen:
                    raise DomainError(f"element {x} appears in two blocks")
                seen.add(x)
        if seen != set(range(1, n + 1)):
            raise DomainError(f"blocks do not cover 1..{n}")
        # Disjoint blocks sort by their minimum.
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))
        object.__setattr__(self, "n", n)

    @property
    def length(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "{" + " | ".join(",".join(map(str, b)) for b in self.blocks) + "}"


def _rgs_iter(n: int) -> Iterator[list[int]]:
    """Restricted-growth strings of length n: a[0] = 0 and
    a[i] <= max(a[0..i-1]) + 1."""
    a = [0] * n

    def rec(i: int, top: int) -> Iterator[list[int]]:
        if i == n:
            yield a
            return
        for v in range(top + 2):
            a[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0) if n > 0 else iter(())


def enum_set_partitions(n: int) -> list[SetPartition]:
    """All set partitions of {1..n} in restricted-growth-string order."""
    if n < 1:
        raise DomainError("ground set must have at least one element")
    if n > SET_PARTITION_CAP:
        raise ResourceCapError(
            f"set partition ground set {n} exceeds cap {SET_PARTITION_CAP}"
        )
    return [SetPartition(blocks, n) for blocks in set_partitions_of(range(1, n + 1))]


def iter_set_partitions_with_blocks(n: int, k: int) -> Iterator[SetPartition]:
    """Set partitions of {1..n} with exactly k blocks, in restricted-growth
    order."""
    for blocks in set_partitions_of(range(1, n + 1)):
        if len(blocks) == k:
            yield SetPartition(blocks, n)


def set_partitions_of(items: Sequence) -> Iterator[tuple[tuple, ...]]:
    """Partitions of an arbitrary finite sequence of labels, as tuples of
    blocks.  Labels keep their original values; order is deterministic."""
    items = tuple(items)
    n = len(items)
    if n == 0:
        yield ()
        return
    for a in _rgs_iter(n):
        nblocks = max(a) + 1
        blocks: list[list] = [[] for _ in range(nblocks)]
        for i, v in enumerate(a):
            blocks[v].append(items[i])
        yield tuple(tuple(b) for b in blocks)


def meet(a: SetPartition, b: SetPartition) -> SetPartition:
    """The smallest partition whose blocks are unions of whole blocks of
    both arguments: the common-coarsening closure, computed as connected
    components of the union of the two block-membership relations."""
    if a.n != b.n:
        raise DomainError(f"ground set sizes differ: {a.n} vs {b.n}")
    parent = list(range(a.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (a, b):
        for block in part.blocks:
            first = block[0]
            for x in block[1:]:
                union(first, x)

    groups: dict[int, list[int]] = {}
    for x in range(1, a.n + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition(tuple(tuple(g) for g in groups.values()), a.n)


def _complementary_blocks(group_of: Sequence[int]) -> Iterator[Blocks]:
    """Blocks of every partition of {1..n} complementary to rho, where
    element x lies in block group_of[x - 1] of rho (labels 0..l-1, each
    used), in restricted-growth order.

    alpha is complementary to rho exactly when the incidence graph with a
    vertex per block of either partition and an edge per element is a
    tree.  Elements are placed in order, with a component label kept for
    every group and every open block: x joins a block only in another
    component than its group's, and the join merges the two, so no cycle
    forms; opening a block adds a leaf.  At most n - l + 1 blocks are
    opened, and a forest with n edges on l + n - l + 1 vertices is
    connected, so every partition grown to the end is complementary.
    A join is always possible once that many blocks are open, so no
    branch dies on the way either.
    """
    n = len(group_of)
    ell = max(group_of) + 1
    most = n - ell + 1
    blocks: list[tuple[int, ...]] = []

    def grow(x: int, comp: tuple[int, ...]) -> Iterator[Blocks]:
        # comp[g]: component of group g; comp[ell + j]: component of block j
        own = comp[group_of[x - 1]]
        if x == n:
            # The last element yields directly: one generator frame less
            # per partition.
            for j, block in enumerate(blocks):
                if comp[ell + j] != own:
                    blocks[j] = block + (x,)
                    yield tuple(blocks)
                    blocks[j] = block
            if len(blocks) < most:
                yield tuple(blocks) + ((x,),)
            return
        for j, block in enumerate(blocks):
            other = comp[ell + j]
            if other != own:
                blocks[j] = block + (x,)
                yield from grow(x + 1, tuple(own if c == other else c for c in comp))
                blocks[j] = block
        if len(blocks) < most:
            blocks.append((x,))
            yield from grow(x + 1, comp + (own,))
            blocks.pop()

    yield from grow(1, tuple(range(ell)))


def enum_complementary(rho: SetPartition) -> list[SetPartition]:
    """All partitions complementary to rho, in restricted-growth order.

    They are grown directly as the trees described in
    ``_complementary_blocks``: every partition built is complementary, and
    no coarsening test is run.
    """
    n = rho.n
    if n > SET_PARTITION_CAP:
        raise ResourceCapError(
            f"set partition ground set {n} exceeds cap {SET_PARTITION_CAP}"
        )
    group_of = [0] * n
    for j, block in enumerate(rho.blocks):
        for x in block:
            group_of[x - 1] = j
    return [SetPartition(blocks, n) for blocks in _complementary_blocks(group_of)]


def mobius_coeff(l: int) -> int:
    """(-1)^(l-1) (l-1)!, the inversion coefficient attached to a partition
    with l blocks when passing between all-products and connected parts."""
    if l < 1:
        raise DomainError("block count must be >= 1")
    sign = 1 if l % 2 == 1 else -1
    return sign * factorial(l - 1)


# ---------------------------------------------------------------------------
# Splits of multiplicity vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def vector_splits(counts: tuple[int, ...], first_block: bool = False) -> tuple:
    """Every split counts = T + R of a multiplicity vector, as (T, R, ways).

    For labelled elements, counts[i] of kind i, ways = prod C(c_i, T_i)
    sub-multisets have type T.  With ``first_block``, only the T holding
    the first element, of the first nonzero kind f, with ways
    C(c_f - 1, T_f - 1) prod_{i != f} C(c_i, T_i): the recursion of the
    exponential formula, whole(c) = sum ways conn(T) whole(R).  Memoized
    without a bound.  A connected covering series keeps it to cap / 3
    split triples (``coverings.CONNECTED_WORK_CAP``).  The Wick tree sum
    fills it with every multiplicity vector of group types that its states
    reach, split whole and by first block, held back only by its price in
    steps: 18 MiB (tracemalloc) after a genus-14 table with the caps lifted.
    """
    f = next(i for i, c in enumerate(counts) if c) if first_block else -1
    splits = [((), (), 1)]
    for i, c in enumerate(counts):  # ways grow by one kind at a time
        own = [((t,), (c - t,), comb(c - (i == f), t - (i == f))) for t in range(i == f, c + 1)]
        splits = [(T + t, R + r, ways * w) for T, R, ways in splits for t, r, w in own]
    return tuple(splits)
