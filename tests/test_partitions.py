import random
import sys
import threading
from fractions import Fraction
from itertools import accumulate
from math import inf

import pytest

import stratavol.partitions
from stratavol.characters import beta_numbers
from stratavol.errors import DomainError, ResourceCapError
from stratavol.partitions import (
    IntPartition,
    SetPartition,
    check_partition_work,
    enum_complementary,
    enum_int_partitions,
    enum_partitions_of_weight,
    enum_set_partitions,
    iter_int_partitions,
    length_sums,
    iter_set_partitions_with_blocks,
    meet,
    mobius_coeff,
    partition_counts,
    partition_sums,
    set_partitions_of,
    vector_splits,
)

from .oracles import (
    bell_number,
    conjugate,
    is_complementary,
    partition_count,
    partitions_by_recursion,
    set_partitions_by_insertion,
    stirling2,
)


class TestIntPartition:
    def test_sorts_descending(self):
        assert tuple(IntPartition([1, 3, 2])) == (3, 2, 1)

    def test_empty_allowed(self):
        lam = IntPartition()
        assert lam.size == 0 and lam.length == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            IntPartition([2, 0])

    def test_rejects_non_integers(self):
        # A part that is not an integer is refused, not truncated; one equal
        # to an integer is that integer.
        for parts in ([3.7, 1], [Fraction(5, 2), 2], ["3"]):
            with pytest.raises(DomainError, match="expected an integer"):
                IntPartition(parts)
        assert IntPartition([3.0, Fraction(2)]) == IntPartition([3, 2])

    def test_conjugate(self):
        assert conjugate(IntPartition([3, 1])) == IntPartition([2, 1, 1])
        assert conjugate(conjugate(IntPartition([3, 1]))) == IntPartition([3, 1])

    def test_multiplicities(self):
        assert IntPartition([2, 2, 1]).multiplicities() == {2: 2, 1: 1}


class TestEnumIntPartitions:
    def test_empty_partition(self):
        assert enum_int_partitions(0) == [IntPartition()]

    def test_count_4(self):
        assert len(enum_int_partitions(4)) == 5

    def test_count_10(self):
        assert len(enum_int_partitions(10)) == 42

    def test_counts_match_pentagonal_oracle(self):
        for d in range(26):
            assert len(enum_int_partitions(d)) == partition_count(d)

    def test_unique_and_sum(self):
        for d in range(12):
            parts = enum_int_partitions(d)
            assert len(set(parts)) == len(parts)
            assert all(p.size == d for p in parts)

    def test_deterministic_order(self):
        assert enum_int_partitions(8) == enum_int_partitions(8)

    def test_order_matches_recursive_generator(self):
        for d in range(31):
            got = list(iter_int_partitions(d))
            assert all(type(lam) is IntPartition for lam in got)
            assert [tuple(lam) for lam in got] == list(partitions_by_recursion(d)), d

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            list(iter_int_partitions(-1))


class TestPartitionsOfWeight:
    def test_weight_5(self):
        assert set(enum_partitions_of_weight(5)) == {
            IntPartition([4]),
            IntPartition([2, 1]),
        }

    def test_weight_1_empty(self):
        assert enum_partitions_of_weight(1) == []

    def test_weight_3(self):
        assert enum_partitions_of_weight(3) == [IntPartition([2])]

    def test_members_have_weight(self):
        for w in range(2, 13):
            for lam in enum_partitions_of_weight(w):
                assert lam.size + lam.length == w

    def test_size_minus_length_parity_fixed(self):
        # size + length = w forces size - length = w (mod 2) for every member
        for w in range(2, 13):
            parities = {
                (lam.size - lam.length) % 2 for lam in enum_partitions_of_weight(w)
            }
            assert parities <= {w % 2}

    def test_every_member_once_by_length_then_lexicographic(self):
        for w in range(1, 21):
            want = sorted(
                (lam for d in range(w + 1) for lam in partitions_by_recursion(d)
                 if d + len(lam) == w),
                key=lambda lam: (len(lam), lam),
            )
            assert [tuple(lam) for lam in enum_partitions_of_weight(w)] == want, w

    def test_empty_iff_weight_one(self):
        assert enum_partitions_of_weight(1) == []
        for w in range(2, 13):
            assert enum_partitions_of_weight(w)


class TestSetPartitions:
    def test_singleton(self):
        assert len(enum_set_partitions(1)) == 1

    def test_bell_3(self):
        assert len(enum_set_partitions(3)) == 5

    def test_bell_4(self):
        assert len(enum_set_partitions(4)) == 15

    def test_counts_match_bell_oracle(self):
        for n in range(1, 9):
            assert len(enum_set_partitions(n)) == bell_number(n)

    def test_matches_insertion_oracle(self):
        for n in range(1, 7):
            ours = {p.blocks for p in enum_set_partitions(n)}
            theirs = set(set_partitions_by_insertion(n))
            assert ours == theirs

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enum_set_partitions(13)

    def test_bad_ground(self):
        with pytest.raises(DomainError):
            enum_set_partitions(0)

    def test_blocks_validation(self):
        with pytest.raises(DomainError):
            SetPartition(((1, 2), (2, 3)), 3)
        with pytest.raises(DomainError):
            SetPartition(((1, 2),), 3)

    def test_canonical_form_from_any_iterable(self):
        p = SetPartition((reversed(b) for b in ([3, 1], [2])), 3)
        assert p.blocks == ((1, 3), (2,)) and p.length == 2

    def test_with_blocks_filter(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                exact = [p for p in enum_set_partitions(n) if p.length == k]
                assert sorted(p.blocks for p in iter_set_partitions_with_blocks(n, k)) \
                    == sorted(p.blocks for p in exact)

    def test_with_blocks_counts_are_stirling_numbers(self):
        for n in range(1, 9):
            for k in range(0, n + 2):
                count = sum(1 for _ in iter_set_partitions_with_blocks(n, k))
                assert count == stirling2(n, k), (n, k)

    def test_set_partitions_of_labels(self):
        blocks = list(set_partitions_of(("a", "b", "c")))
        assert len(blocks) == 5
        assert all(sorted(x for b in p for x in b) == ["a", "b", "c"] for p in blocks)


class TestMeet:
    def test_chains_connect(self):
        a = SetPartition([[1, 2], [3]], 3)
        b = SetPartition([[1], [2, 3]], 3)
        assert meet(a, b) == SetPartition([[1, 2, 3]], 3)

    def test_idempotent(self):
        for p in enum_set_partitions(4):
            assert meet(p, p) == p

    def test_discrete_neutral(self):
        for p in enum_set_partitions(4):
            assert meet(SetPartition([[1], [2], [3], [4]], 4), p) == p

    def test_mismatched_ground(self):
        with pytest.raises(DomainError):
            meet(SetPartition([[1], [2], [3]], 3), SetPartition([[1], [2], [3], [4]], 4))


class TestTransversal:
    def test_bound_small(self):
        for n in range(1, 6):
            parts = enum_set_partitions(n)
            for a in parts:
                for b in parts:
                    assert a.length + b.length - meet(a, b).length <= n


class TestComplementary:
    def test_two_blocks_example(self):
        rho = SetPartition([[1, 2], [3]], 3)
        comp = enum_complementary(rho)
        assert {p.blocks for p in comp} == {((1, 3), (2,)), ((1,), (2, 3))}

    def test_one_block_gives_discrete(self):
        rho = SetPartition([[1, 2, 3]], 3)
        assert enum_complementary(rho) == [SetPartition([[1], [2], [3]], 3)]

    def test_discrete_gives_one_block(self):
        rho = SetPartition([[1], [2]], 2)
        assert enum_complementary(rho) == [SetPartition([[1, 2]], 2)]

    def test_predicate_matches_enum(self):
        for n in range(1, 6):
            for rho in enum_set_partitions(n):
                from_enum = {p.blocks for p in enum_complementary(rho)}
                from_pred = {
                    p.blocks for p in enum_set_partitions(n) if is_complementary(p, rho)
                }
                assert from_enum == from_pred

    def test_predicate_matches_enum_by_block_shape(self):
        # One rho per block-size shape, blocks of consecutive elements: the
        # tree-grown partitions, in order, against the brute-force filter.
        for n in (6, 7, 8):
            every = enum_set_partitions(n)
            for shape in enum_int_partitions(n):
                blocks, start = [], 1
                for size in shape:
                    blocks.append(range(start, start + size))
                    start += size
                rho = SetPartition(blocks, n)
                want = [p for p in every if is_complementary(p, rho)]
                assert enum_complementary(rho) == want, shape

    def test_count_depends_only_on_block_sizes(self):
        rng = random.Random(7)
        for n in range(2, 7):
            for rho in enum_set_partitions(n):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                relabeled = SetPartition(
                    [[perm[x - 1] for x in b] for b in rho.blocks], n
                )
                assert len(enum_complementary(rho)) == len(enum_complementary(relabeled))


class TestVectorSplits:
    COUNTS = [(1,), (4,), (2, 1), (0, 3), (2, 0, 2), (1, 1, 1, 1), (3, 2, 1)]

    def test_ways_count_labelled_subsets(self):
        # Elements are listed kind by kind, so the first element is of the
        # first nonzero kind.
        for counts in self.COUNTS:
            kinds = [i for i, c in enumerate(counts) for _ in range(c)]
            n = len(kinds)
            every: dict = {}
            first: dict = {}
            for mask in range(1 << n):
                T = [0] * len(counts)
                for x in range(n):
                    if mask >> x & 1:
                        T[kinds[x]] += 1
                every[tuple(T)] = every.get(tuple(T), 0) + 1
                if mask & 1:
                    first[tuple(T)] = first.get(tuple(T), 0) + 1
            for want, flag in ((every, False), (first, True)):
                got = vector_splits(counts, flag)
                assert {T: ways for T, _, ways in got} == want, (counts, flag)
                assert all(tuple(t + r for t, r in zip(T, R)) == counts for T, R, _ in got)

    def test_first_block_recursion_counts_set_partitions(self):
        # With one connected structure per block, whole(c) = Bell(|c|).
        for counts in self.COUNTS:
            memo = {}

            def whole(c):
                if not any(c):
                    return 1
                if c not in memo:
                    memo[c] = sum(ways * whole(R) for _, R, ways in vector_splits(c, True))
                return memo[c]

            assert whole(counts) == bell_number(sum(counts)), counts


class TestMobius:
    def test_values(self):
        assert mobius_coeff(1) == 1
        assert mobius_coeff(2) == -1
        assert mobius_coeff(4) == -6

    def test_round_trip_block_multiplicative(self):
        # Start from arbitrary per-subset data v, define the all-terms sums
        # P(S) = sum over partitions of S of the product of v over blocks,
        # and check that the signed-factorial inversion over whole-set
        # partitions recovers v on the full set.
        rng = random.Random(123)
        for n in range(1, 6):
            ground = tuple(range(1, n + 1))
            v = {}
            for alpha in set_partitions_of(ground):
                for block in alpha:
                    v.setdefault(block, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

            def p_of(subset: tuple) -> Fraction:
                total = Fraction(0)
                for alpha in set_partitions_of(subset):
                    prod = Fraction(1)
                    for block in alpha:
                        prod *= v[block]
                    total += prod
                return total

            recovered = Fraction(0)
            for alpha in set_partitions_of(ground):
                prod = Fraction(mobius_coeff(len(alpha)))
                for block in alpha:
                    prod *= p_of(block)
                recovered += prod
            assert recovered == v[ground]


class TestPartitionCounts:
    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(stratavol.partitions, "_partition_counts", [1])
        monkeypatch.setattr(stratavol.partitions, "_partition_sums", [1])
        monkeypatch.setattr(stratavol.partitions, "_length_sums", [0])

    def test_grown_to_the_first_count_over_cap(self):
        counts = partition_counts(10**9, 1000)
        assert counts == [partition_count(n) for n in range(len(counts))]
        assert counts[-2] <= 1000 < counts[-1]
        assert partition_counts(5, inf) is counts
        assert partition_sums(5, inf) == list(accumulate(counts))
        assert len(length_sums(5, inf)) == len(counts)

    def test_length_sums_count_the_parts(self):
        # sum_{lam |- n} l(lam) = sum_{j, k >= 1} p(n - jk), against the
        # partitions themselves.
        parts = [sum(map(len, enum_int_partitions(n))) for n in range(15)]
        assert length_sums(14, inf)[:15] == list(accumulate(parts))

    def test_removable_rim_hooks(self):
        # The partitions of n have m sum_{k >= 1} p(n - km) removable
        # m-rim hooks in all, one per beta number b with b - m >= 0 free.
        for n in range(15):
            for m in range(1, n + 2):
                hooks = 0
                for lam in enum_int_partitions(n):
                    beta = beta_numbers(lam)
                    hooks += sum(b >= m and b - m not in beta for b in beta)
                assert hooks == m * sum(partition_count(n - k * m)
                                        for k in range(1, n // m + 1)), (n, m)

    def test_check_reads_the_running_sums(self):
        # p(0..10) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42: the running sum
        # is 97 at degree 9 and 139 at degree 10.
        assert check_partition_work(9, 100, "test") == 97
        assert check_partition_work(-1, 100, "test") == 0
        for dmax in (10, 12, 10**9):
            with pytest.raises(ResourceCapError, match=r"\(139 by degree 10\)"):
                check_partition_work(dmax, 100, "test")
        assert check_partition_work(30, 10**6, "test") == sum(map(partition_count, range(31)))

    def test_concurrent_growth(self, monkeypatch):
        lengths = list(length_sums(47, inf))  # grown by one thread
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                monkeypatch.setattr(stratavol.partitions, "_partition_counts", [1])
                monkeypatch.setattr(stratavol.partitions, "_partition_sums", [1])
                monkeypatch.setattr(stratavol.partitions, "_length_sums", [0])
                start = threading.Barrier(8)

                def grow(dmax):
                    start.wait()
                    partition_counts(dmax, inf)

                threads = [threading.Thread(target=grow, args=(40 + i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                counts = stratavol.partitions._partition_counts
                assert counts == [partition_count(n) for n in range(48)]
                assert stratavol.partitions._partition_sums == list(accumulate(counts))
                assert stratavol.partitions._length_sums == lengths
        finally:
            sys.setswitchinterval(interval)
