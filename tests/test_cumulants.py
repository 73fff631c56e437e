import hashlib
import importlib.util
import json
import linecache
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratavol.cumulants
import stratavol.exact_arith
import stratavol.partitions
from stratavol.cumulants import (
    StratumSpec,
    WickGroups,
    c_const,
    c_simple,
    elementary_cumulant,
    elementary_cumulant_series_oracle,
    f_cumulant_leading,
    t_poly_forest_oracle,
    volume,
    wick_leading,
)
from stratavol.errors import DomainError, ResourceCapError
from stratavol.exact_arith import PiScalar, frak_z
from stratavol.partitions import (
    IntPartition,
    enum_int_partitions,
    enum_set_partitions,
)
from stratavol.shifted_symmetric import f_top_expansion
from .oracles import (
    cumulant_by_set_partitions,
    partition_count,
    planted_by_set_partitions,
    wick_by_complementary_trees,
)


GOLDEN_GENUS_2_TO_6 = json.loads(
    (Path(__file__).parent / "data" / "golden_volumes.json").read_text()
)


def clear_cumulant_memos():
    """Forget every cumulant, cumulant tree state and Wick tree sum state,
    so that the next call builds them with the common denominator in
    force."""
    stratavol.cumulants._cumulant_over_pi.cache_clear()
    stratavol.cumulants._tree_memo["memo"] = (1, {}, {}, {})
    stratavol.cumulants._wick_memo["memo"] = (1, {}, {}, {}, {}, {})


def tree_states(monkeypatch) -> list:
    """The (memo, u, shift) of every ``_grow`` call from now on: a root sum at
    shift 0, a planted sum computed (not read from the memo) at shift 1."""
    grown, real = [], stratavol.cumulants._grow

    def counting(memo, u, shift):
        grown.append((memo, u, shift))
        return real(memo, u, shift)

    monkeypatch.setattr(stratavol.cumulants, "_grow", counting)
    return grown


def keys_up_to(max_parts, max_size):
    def rec(rem, nparts, max_part):
        if nparts == 0:
            yield ()
            return
        for first in range(min(rem - nparts + 1, max_part), 0, -1):
            for rest in rec(rem - first, nparts - 1, first):
                yield (first,) + rest

    for n in range(1, max_parts + 1):
        for size in range(n, max_size + 1):
            yield from rec(size, n, size)


class TestElementaryCumulant:
    def test_single_one(self):
        assert elementary_cumulant((1,)) == PiScalar(Fraction(1, 6), 2)

    def test_single_two_vanishes(self):
        assert elementary_cumulant((2,)).is_zero()

    def test_pair_22(self):
        assert elementary_cumulant((2, 2)) == PiScalar(Fraction(16, 45), 4)

    def test_pair_42(self):
        assert elementary_cumulant((4, 2)) == PiScalar(Fraction(416, 315), 6)

    def test_one_part_closed_form(self):
        for k in range(1, 9):
            assert elementary_cumulant((k,)) == factorial(k) * frak_z(k + 1)

    def test_two_part_closed_form(self):
        for k in range(1, 7):
            for l in range(1, k + 1):
                want = factorial(k + l) * frak_z(k + l) - (
                    factorial(k) * factorial(l)
                ) * frak_z(k) * frak_z(l)
                assert elementary_cumulant((k, l)) == want

    def test_canonical_ordering(self):
        assert elementary_cumulant((2, 4)) == elementary_cumulant((4, 2))

    def test_pi_homogeneity_and_parity(self):
        for key in keys_up_to(4, 8):
            value = elementary_cumulant(key)
            size, n = sum(key), len(key)
            if (size - n) % 2 == 1:
                assert value.is_zero(), key
            elif not value.is_zero():
                assert value.pi_pow == size - n + 2, key

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            elementary_cumulant(())

    def test_non_integers_rejected(self):
        with pytest.raises(DomainError, match="expected an integer, got 2.5"):
            elementary_cumulant((2.5, 2))

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            elementary_cumulant((2,) * 100)

    def test_work_cap_boundary(self, monkeypatch):
        # The keys nearest the cap from each side, from the price alone:
        # the Bernoulli numbers decide a key of few parts, the cumulant
        # tree's states one of many equal or distinct parts (an odd number
        # of 2s vanishes by parity and starts no tree).  Cold, with
        # start-up, 1998 takes 1.0 s, eighty-eight 2s 0.8 s and 28, 27,
        # ..., 17 1.0 s on a 2-core Xeon.
        monkeypatch.setattr(stratavol.cumulants, "_cumulant_over_pi", lambda key: Fraction(0))
        for admitted, refused in [((1998,), (1999,)), ((1000, 996), (1001, 997)),
                                  ((2,) * 88, (2,) * 90),
                                  (tuple(range(28, 16, -1)), tuple(range(29, 17, -1)))]:
            elementary_cumulant(admitted)
            with pytest.raises(ResourceCapError, match="cumulant work"):
                elementary_cumulant(refused)

    def test_memoized_on_sorted_key(self, monkeypatch):
        # One planted sum and one forest row per sorted sub-multiset, shared
        # across keys: (3, 2, 2, 1, 1) computes every state that the later
        # keys read, so each of them sums only its own root.
        grown = tree_states(monkeypatch)
        clear_cumulant_memos()
        first = elementary_cumulant((1, 1, 2, 2, 3))
        _, _, planted, forests = stratavol.cumulants._tree_memo["memo"]
        assert [(u, shift) for _, u, shift in grown] == [
            ((3, 2, 2, 1, 1), 0), ((2,), 1), ((2, 1, 1), 1), ((2, 1), 1)]
        assert set(planted) == {(2,), (2, 1), (2, 1, 1)}
        # A forest's trees each hold an odd number of 2s: none covers (1, 1).
        assert set(forests) == {(2, 2, 1, 1), (2, 2, 1), (2, 2), (2, 1, 1), (2, 1), (2,)}
        grown.clear()
        keys = [(3, 2, 2, 1, 1), (1, 1, 2, 2), (2, 2, 1), (2, 2), (1, 1), (2, 1), (2,), (1,)]
        for key in keys:
            assert elementary_cumulant(key).coeff == cumulant_by_set_partitions(key), key
        assert [(u, shift) for _, u, shift in grown] == [
            (tuple(sorted(key, reverse=True)), 0) for key in keys[1:]]
        assert elementary_cumulant((3, 2, 2, 1, 1)) == first
        assert first.coeff == cumulant_by_set_partitions((3, 2, 2, 1, 1))

    def test_cap_checked_with_memo_filled(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cumulant tree state was computed")

        memo = stratavol.cumulants._cumulant_over_pi
        elementary_cumulant((1,) * 4)
        filled = memo.cache_info().currsize
        assert filled > 0
        for name in ("_common_denominator", "_tree_cumulant", "_grow", "_weights"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        with pytest.raises(ResourceCapError):
            elementary_cumulant((2,) * 100)
        assert memo.cache_info().currsize == filled


class TestSharedTables:
    # Nested keys and keys that share sub-multisets without nesting.
    KEYS = [(1,), (2, 1), (2, 1, 1), (3, 2, 1, 1), (3, 3, 2, 1, 1), (4, 3, 3, 2, 1, 1),
            (4, 3, 1), (3, 3, 1, 1), (5, 3, 2, 2, 1), (2, 2, 2, 2, 1, 1, 1)]

    def test_any_order_matches_oracle(self):
        # Smallest keys first, each block weight row is kept only to the
        # degrees the keys so far asked for, so the larger keys widen it.
        want = {key: cumulant_by_set_partitions(key) for key in self.KEYS}
        shuffled = list(self.KEYS)
        random.Random(5).shuffle(shuffled)
        smallest = sorted(self.KEYS, key=lambda key: (len(key), sum(key)))
        for order in (self.KEYS, self.KEYS[::-1], shuffled, smallest):
            clear_cumulant_memos()
            for key in order:
                assert stratavol.cumulants._cumulant_over_pi(key) == want[key], (order, key)

    def test_super_key_widens_an_entry(self):
        # Both keys have |v| - #v + 2 = 8, so they share one memo.  A tree
        # of a forest holds an odd number of even entries.  Inside
        # (4, 2, 2, 2, 1) the weight row (6, 3) serves the planted block
        # {2, 2, 2}, whose rest {4, 1} holds one tree at most, so it keeps
        # only degree 1; inside (4, 2, 2, 2, 1, 1) the root block {4, 1, 1}
        # can hold three trees, one per 2, and the row gains degree 3.
        clear_cumulant_memos()
        small = stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1))
        weights = stratavol.cumulants._tree_memo["memo"][1]
        row = weights[6, 3]
        assert len(row) == 1
        big = stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1, 1))
        assert stratavol.cumulants._tree_memo["memo"][1] is weights
        assert len(weights[6, 3]) == 2 and weights[6, 3][:1] == row
        assert small == cumulant_by_set_partitions((4, 2, 2, 2, 1))
        assert big == cumulant_by_set_partitions((4, 2, 2, 2, 1, 1))
        stratavol.cumulants._cumulant_over_pi.cache_clear()
        assert stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1)) == small

    def test_volume_table_builds_each_sub_multiset_once(self, monkeypatch):
        # The benchmark's volume_table strata from cold: each planted sum
        # and forest row is computed once per common denominator (a larger
        # one starts a fresh memo), a weight row that a later key needs to
        # more degrees gains only the cells of those degrees, and every
        # volume is unchanged.
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        strata = workloads.volume_strata()
        want = [volume(mu).volume for mu in strata]
        grown, forests, widened = tree_states(monkeypatch), [], []
        real_forests, real_weights = stratavol.cumulants._forests, stratavol.cumulants._weights

        def forest(memo, u):
            if u and u not in memo[3]:
                forests.append((memo[0], u))
            return real_forests(memo, u)

        def weighing(memo, size, parts, degree):
            old = memo[1].get((size, parts))
            row = real_weights(memo, size, parts, degree)
            if old is not None and row is not old:
                widened.append((memo[0], (size, parts)))
                assert len(row) > len(old) and row[:len(old)] == old
            return row

        monkeypatch.setattr(stratavol.cumulants, "_forests", forest)
        monkeypatch.setattr(stratavol.cumulants, "_weights", weighing)
        clear_cumulant_memos()
        try:
            assert [volume(mu).volume for mu in strata] == want
            memo = stratavol.cumulants._tree_memo["memo"]
            _, weights, planted, kept = memo
        finally:
            clear_cumulant_memos()
        computed = [(memo[0], u) for memo, u, shift in grown if shift]
        scales = sorted({scale for scale, _ in computed})
        assert len(computed) == len(set(computed)) == 43 and len(scales) == 4
        assert len(forests) == len(set(forests)) == 67
        assert len(planted) == 17 and len(kept) == 25 and scales[-1] == memo[0]
        last = {row for scale, row in widened if scale == memo[0]}
        assert last and last <= set(weights)

    def test_inexact_rescale_raises(self, monkeypatch):
        # A common denominator of (5, 4, 2) that lacks the factor 7 of
        # frak_z(6) = 31/15120 cannot scale the weight 5! frak_z(6) = 31/126
        # of its root block {5}: the weight row refuses it where it is built.
        real = stratavol.cumulants._common_denominator
        monkeypatch.setattr(stratavol.cumulants, "_common_denominator",
                            lambda top: real(top) // 7 if top == 10 else real(top))
        clear_cumulant_memos()
        with pytest.raises(ArithmeticError, match="/15120 is not") as caught:
            elementary_cumulant((5, 4, 2))
        assert "_weights" in [entry.name for entry in caught.traceback]
        clear_cumulant_memos()

    @pytest.mark.parametrize("size", range(2, 8))
    def test_planted_sums_match_oracle_and_vanish_by_parity(self, size):
        # Every sorted u of ``size`` with up to 5 parts: the planted sum
        # against one term per set partition and degree sequence, which is
        # 0 whenever |u| - #u is even, the parity that _grow answers
        # without a sum.
        keys = [key for key in keys_up_to(5, size) if sum(key) == size]
        scale = stratavol.cumulants._common_denominator(size + 1)
        memo = (scale, {}, {}, {})
        nonzero = 0
        for u in keys:
            want = planted_by_set_partitions(u)
            assert Fraction(stratavol.cumulants._planted(memo, u), scale ** len(u)) == want, u
            if (size - len(u)) % 2 == 0:
                assert want == 0, u
            nonzero += want != 0
        assert nonzero

class TestSharedWickMemo:
    # c(m) needs the common denominator Q(2 + |m|): up to Q(10) for SMALL,
    # and Q(17) for (7, 5, 3), with the primes 13 and 17 that Q(10) lacks.
    SMALL = [(2, 2), (3, 2, 2), (3, 3, 2), (4, 2)]
    BIG = [(7, 5, 3), (6, 4, 2)]

    @staticmethod
    def cold(calls):
        values = []
        for call in calls:
            clear_cumulant_memos()
            values.append(call())
        clear_cumulant_memos()
        return values

    def test_clear_forgets_the_wick_memo(self):
        c_const((3, 2, 2))
        _, *states = stratavol.cumulants._wick_memo["memo"]
        assert all(states)
        clear_cumulant_memos()
        assert stratavol.cumulants._wick_memo["memo"] == (1, {}, {}, {}, {}, {})

    @settings(max_examples=6, deadline=None)
    @given(order=st.permutations(GOLDEN_GENUS_2_TO_6), cold=st.booleans())
    def test_volumes_in_any_order_cold_or_warm(self, order, cold):
        if cold:
            clear_cumulant_memos()
        for row in order:
            result = volume(row["mu"])
            assert result.volume.as_json_dict() == row["volume"], row["mu"]
            assert result.c_const.as_json_dict() == row["c"], row["mu"]

    def test_larger_reach_replaces_the_memo(self):
        want = self.cold([lambda key=key: c_const(key) for key in self.SMALL + self.BIG])
        assert [c_const(key) for key in self.SMALL] == want[:len(self.SMALL)]
        small = stratavol.cumulants._wick_memo["memo"]
        states = len(small[4])  # blk
        assert states
        assert [c_const(key) for key in self.BIG] == want[len(self.SMALL):]
        big = stratavol.cumulants._wick_memo["memo"]
        assert big is not small
        assert big[0] % small[0] == 0 and big[0] > small[0]
        assert len(small[4]) == states  # replaced, not cleared in place
        assert [c_const(key) for key in self.SMALL] == want[:len(self.SMALL)]
        assert stratavol.cumulants._wick_memo["memo"] is big

    def test_each_generator_scaled_once_per_q(self, monkeypatch):
        # f_top_expansion is memoized, so each coefficient of f_k is one
        # object, and the _scaled calls on those objects are k's scalings.
        calls, real = [], stratavol.cumulants._scaled

        def counted(value, scale):
            calls.append(value)
            return real(value, scale)

        def scalings(k):
            coeffs = {id(coeff) for _, coeff in f_top_expansion(k).terms}
            return sum(id(value) in coeffs for value in calls)

        keys = [(4, 3, 2), (3, 2, 2), (5, 3), (7, 5, 3)]
        want = self.cold([lambda key=key: c_const(key) for key in keys])
        monkeypatch.setattr(stratavol.cumulants, "_scaled", counted)
        terms = {k: len(f_top_expansion(k).terms) for k in range(2, 8)}
        # Q(8) for (4, 3, 2) and (5, 3), Q(6) for (3, 2, 2): one memo.
        assert c_const(keys[0]) == want[0]
        assert [scalings(k) for k in (4, 3, 2)] == [terms[4], terms[3], terms[2]]
        first = stratavol.cumulants._wick_memo["memo"]
        calls.clear()
        assert c_const(keys[0]) == want[0] and calls == []
        assert c_const(keys[1]) == want[1]
        assert scalings(3) == scalings(2) == 0
        assert c_const(keys[2]) == want[2]
        assert scalings(5) == terms[5] and scalings(3) == 0
        assert stratavol.cumulants._wick_memo["memo"] is first
        # Q(14) holds 13, which Q(8) lacks: a fresh memo scales 3 and 5 again.
        calls.clear()
        assert c_const(keys[3]) == want[3]
        assert stratavol.cumulants._wick_memo["memo"] is not first
        assert [scalings(k) for k in (7, 5, 3)] == [terms[7], terms[5], terms[3]]
        assert set(first[5]) == {4, 3, 2, 5}
        clear_cumulant_memos()

    def test_a_lone_group_keeps_no_type(self):
        clear_cumulant_memos()
        c_const((9,))
        wick_leading([[4, 2]])
        assert stratavol.cumulants._wick_memo["memo"][5] == {}
        c_const((9, 2))
        assert set(stratavol.cumulants._wick_memo["memo"][5]) == {9, 2}
        clear_cumulant_memos()

    def test_generator_and_group_types_keep_their_own_entries(self):
        # Values in either order are checked by the test below.
        clear_cumulant_memos()
        wick_leading([[3], [3]])
        f_cumulant_leading((3, 3))
        types = stratavol.cumulants._wick_memo["memo"][5]
        assert set(types) == {3, (3,)}
        assert types[(3,)][1:] == ([((3,), 1)], [(3, (), 1)])
        assert len(types[3][1]) == len(f_top_expansion(3).terms) > 1
        clear_cumulant_memos()

    def test_wick_and_generator_calls_do_not_collide(self):
        # The group (3,) and the generator f_3 are different types with
        # the same part 3; both kinds of call share the leaves only.
        calls = [
            lambda: wick_leading([[3], [3]]).value,
            lambda: f_cumulant_leading((3, 3)),
            lambda: wick_leading([[3], [2], [2]]).value,
            lambda: f_cumulant_leading((3, 2, 2)),
            lambda: wick_leading([[3, 1], [2], [2]]).value,
            lambda: f_cumulant_leading((4, 2)),
        ]
        want = self.cold(calls)
        assert len({value.coeff for value in want}) == len(want)
        assert [call() for call in calls] == want
        clear_cumulant_memos()
        assert [call() for call in calls[::-1]] == want[::-1]

    def test_threads_at_different_scales(self):
        # Half the threads start at a small Q and half at a large Q, so the
        # memo is replaced while others are still using the old one.
        keys = self.SMALL + self.BIG
        want = dict(zip(keys, self.cold([lambda key=key: c_const(key) for key in keys])))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                clear_cumulant_memos()
                start = threading.Barrier(4)
                got = [{} for _ in range(4)]

                def run(order, out):
                    start.wait()
                    for key in order:
                        out[key] = c_const(key)

                orders = [keys, keys[::-1]]
                threads = [threading.Thread(target=run, args=(orders[i % 2], got[i]))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [want] * 4
        finally:
            sys.setswitchinterval(interval)
            clear_cumulant_memos()


class TestSetPartitionOracle:
    def test_agrees_up_to_seven_parts(self):
        # The cumulant tree against one term per set partition.
        for key in keys_up_to(7, 14):
            got = stratavol.cumulants._cumulant_over_pi(key)
            assert got == cumulant_by_set_partitions(key), key

    def test_agrees_on_repeated_entries(self):
        for key in [(2,) * 8, (1,) * 8, (3, 2, 2, 2, 1, 1, 1, 1)]:
            got = stratavol.cumulants._cumulant_over_pi(key)
            assert got == cumulant_by_set_partitions(key), key

    def test_agrees_across_bernoulli_primes(self):
        # |m| - n + 2 reaches 6, 10 and 12, whose Bernoulli denominators
        # bring the primes 7, 11 and 13 into the common denominator; the
        # keys with |m| - n odd vanish by parity.
        keys = [(5,), (6,), (9,), (10,), (11,), (12,), (5, 5, 1), (5, 5, 2),
                (5, 5, 3), (7, 5), (9, 3), (11, 1), (6, 4, 2, 2)]
        denominators = 1
        for key in keys:
            got = stratavol.cumulants._cumulant_over_pi(key)
            assert got == cumulant_by_set_partitions(key), key
            assert (got == 0) == ((sum(key) - len(key)) % 2 == 1), key
            denominators *= got.denominator
        assert denominators % (7 * 11 * 13) == 0


class TestCommonDenominator:
    def test_clears_every_frak_z_term(self):
        # Q (j - 1)! frak_z(j) is an integer for j <= top, so every block
        # series of a key with |m| - n + 2 = top scales to integers.
        scale = stratavol.cumulants._common_denominator
        for top in range(2, 41):
            for j in range(2, top + 1, 2):
                assert (scale(top) * factorial(j - 1) * frak_z(j).coeff).denominator == 1
            assert scale(top + 1) % scale(top) == 0

    def test_wrong_denominator_raises_in_partition_table(self, monkeypatch):
        # With Q = 1 the block weights keep their fractions, e.g. the
        # weight 5! frak_z(6) = 31/126 of the block (5,); the memos are
        # cleared so that no state built with the real Q is read.
        monkeypatch.setattr(stratavol.cumulants, "_common_denominator", lambda top: 1)
        clear_cumulant_memos()
        with pytest.raises(ArithmeticError, match="is not an integer"):
            elementary_cumulant((5, 5, 1))
        clear_cumulant_memos()

    def test_wrong_denominator_raises_in_wick_sum(self, monkeypatch):
        # The block (5, 1) closes with its cumulant 6! frak_z(6) = 31/21
        # pi^6, and the blocks of c(6, 2) with cumulants whose denominators
        # hold 7 as well; a common denominator without 7 refuses them.
        # Both calls first run with the real Q, so every tree state they
        # reach is kept at the real Q(8); then only the Wick memo is reset,
        # so that the error can come only from rescaling a leaf to the
        # Wick sum's Q.
        real = stratavol.cumulants._common_denominator
        assert elementary_cumulant((5, 1)) == PiScalar(Fraction(31, 21), 6)
        wick_leading([[5], [1]])
        f_cumulant_leading((6, 2))
        monkeypatch.setattr(stratavol.cumulants, "_common_denominator",
                            lambda top: real(top) // 7 if real(top) % 7 == 0 else real(top))
        try:
            for call in (lambda: wick_leading([[5], [1]]),
                         lambda: f_cumulant_leading((6, 2))):
                stratavol.cumulants._wick_memo["memo"] = (1, {}, {}, {}, {}, {})
                with pytest.raises(ArithmeticError, match="is not an integer") as caught:
                    call()
                names = [entry.name for entry in caught.traceback]
                assert "_wick_tree_sum" in names and "_tree_cumulant" in names, names
                assert "_cumulant_over_pi" not in names and "_grow" not in names, names
        finally:
            clear_cumulant_memos()


class TestSeriesOracle:
    def test_agrees_small(self):
        for key in keys_up_to(3, 6):
            assert elementary_cumulant(key) == elementary_cumulant_series_oracle(key), key

    def test_agrees_four_parts(self):
        for key in [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1)]:
            assert elementary_cumulant(key) == elementary_cumulant_series_oracle(key)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            elementary_cumulant_series_oracle((1,) * 5)


class TestForestOracle:
    def test_all_partitions_up_to_4(self):
        for n in range(1, 5):
            for rho in enum_set_partitions(n):
                assert t_poly_forest_oracle(rho), rho

    def test_cap(self):
        from stratavol.partitions import SetPartition

        with pytest.raises(ResourceCapError):
            t_poly_forest_oracle(SetPartition([[x] for x in range(1, 7)], 6))


def _groupings(entries, most):
    """Multisets of partitions with parts in ``entries`` and at most
    ``most`` parts in all, each as a list of descending tuples."""
    kinds = [g for n in range(1, most + 1) for g in combinations_with_replacement(entries, n)]

    def rec(start, left, acc):
        if acc:
            yield list(acc)
        for i in range(start, len(kinds)):
            if len(kinds[i]) <= left:
                acc.append(kinds[i])
                yield from rec(i, left - len(kinds[i]), acc)
                acc.pop()

    yield from rec(0, most, [])


class TestWickLeading:
    def test_two_singletons(self):
        wl = wick_leading([[4], [2]])
        assert wl.value == elementary_cumulant((4, 2))
        assert wl.hbar_exponent == 7

    def test_mixed_groups(self):
        # [(2,1)], [(2)]: glue either the 2 or the 1 to the second group.
        wl = wick_leading([[2, 1], [2]])
        want = (
            elementary_cumulant((2, 2)) * elementary_cumulant((1,))
            + elementary_cumulant((2, 1)) * elementary_cumulant((2,))
        )
        assert wl.value == want
        assert wl.hbar_exponent == (3 + 2 + 3) - 2 + 1

    def test_four_point_pattern(self):
        # [(a)], [(b)], [(c,d)] expands into exactly four products.
        a, b, c, d = 2, 2, 1, 1
        wl = wick_leading([[a], [b], [c, d]])
        want = (
            elementary_cumulant((a, b, c)) * elementary_cumulant((d,))
            + elementary_cumulant((a, b, d)) * elementary_cumulant((c,))
            + elementary_cumulant((a, c)) * elementary_cumulant((b, d))
            + elementary_cumulant((a, d)) * elementary_cumulant((b, c))
        )
        assert wl.value == want

    def test_group_permutation_invariance(self):
        assert wick_leading([[2, 1], [2]]).value == wick_leading([[2], [2, 1]]).value

    def test_single_group_factorizes(self):
        wl = wick_leading([[3, 1]])
        assert wl.value == elementary_cumulant((3,)) * elementary_cumulant((1,))
        assert wl.hbar_exponent == (4 + 2) - 1 + 1

    def test_groups_validation(self):
        with pytest.raises(DomainError):
            WickGroups(())

    @pytest.mark.parametrize("entries, most", [((1, 2), 8), ((1, 2, 3), 6)])
    def test_dp_matches_tree_enumeration(self, entries, most):
        # Every grouping (a multiset of partitions) with at most ``most``
        # parts drawn from ``entries``: the DP against one term per
        # complementary partition.
        groupings = list(_groupings(entries, most))
        nonzero = 0
        for groups in groupings:
            want = wick_by_complementary_trees(groups)
            assert wick_leading(groups).value == want, groups
            nonzero += not want.is_zero()
        assert nonzero > len(groupings) // 4

    def test_work_cap_checked_before_any_cumulant(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cumulant or the tree sum was started")

        for name in ("_common_denominator", "_cumulant_over_pi", "_tree_cumulant"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        # One type each: the block keys (1^j) and (2^a 1^b) of up to 400
        # and 40 parts make the cumulant tree the work.
        for groups in ([[1]] * 400, [[2, 1]] * 40):
            with pytest.raises(ResourceCapError):
                wick_leading(groups)


class TestCConst:
    def test_leading_42(self):
        assert f_cumulant_leading((4, 2)) == PiScalar(Fraction(128, 945), 6)

    def test_value_42(self):
        assert c_const((4, 2)) == PiScalar(Fraction(8, 42525), 6)

    def test_single_two_vanishes(self):
        assert c_const((2,)).is_zero()

    def test_pair_22(self):
        assert c_const((2, 2)) == PiScalar(Fraction(1, 270), 4)

    def test_symmetry(self):
        assert c_const((2, 4)) == c_const((4, 2))
        assert c_const((3, 2, 3)) == c_const((3, 3, 2))

    def test_parity_vanishing(self):
        for m in [(2,), (3, 2), (2, 2, 2)]:
            if (sum(m) + len(m)) % 2 == 1:
                assert c_const(m).is_zero()

    @pytest.mark.parametrize(
        "key", [(5, 5, 3), (4, 3, 2, 2), (3, 3, 3, 2), (4, 4, 2, 2), (3, 3, 3, 3),
                (6, 4), (7, 3), (6, 2, 2), (7, 3, 2), (8, 4)]
    )
    def test_folded_expansion_matches_oracle_wick_per_choice(self, key):
        # The expansion sum folded into the tree DP against one
        # enumerated Wick sum per choice of terms, times its coefficient.
        # When |m| + l(m) is odd, as for (4,3,2,2) and (3,3,3,2), every
        # term has a block whose cumulant vanishes by parity.  The terms
        # of f_6, f_7 and f_8 have 1 to 3 or 4 parts, so the DP pads the
        # short ones by powers of the common denominator.
        want = PiScalar.zero()
        nonzero = 0
        for choice in product(*(f_top_expansion(k).terms for k in key)):
            coeff = Fraction(1)
            for _, c in choice:
                coeff *= c
            term = wick_by_complementary_trees([lam for lam, _ in choice]) * coeff
            nonzero += not term.is_zero()
            want = want + term
        assert (nonzero > 0) == ((sum(key) + len(key)) % 2 == 0)
        assert f_cumulant_leading(key) == want

    def test_longest_expansion_term(self):
        # The longest top-weight term of generator k has (k + 1) // 2 parts.
        for k in range(2, 31):
            longest = max(len(lam) for lam, _ in f_top_expansion(k).terms)
            assert longest == (k + 1) // 2, k

    def test_top_term_count(self):
        # The price counts the terms of f_k as p(k + 1) - p(k), their parts
        # and their distinct parts from the partition counts too, and the
        # DP's value tuples as at most p(k + 1); it reads the values of
        # their parts and the longest term's length from k alone.
        for k in range(2, 31):
            terms = [lam for lam, _ in f_top_expansion(k).terms]
            values, steps = stratavol.cumulants._generator_figures(k)
            assert steps[:4] == (len(terms), sum(map(len, terms)), sum(map(len, terms)),
                                 sum(len(set(lam)) for lam in terms)), k
            assert partition_count(k + 1) - partition_count(k) == len(terms), k
            assert steps[4] == partition_count(k + 1), k
            assert steps[5] == max(map(len, terms)), k
            assert values == tuple(sorted({p for lam in terms for p in lam})), k

    def test_cap_checked_before_any_cumulant(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an expansion or a cumulant was computed")

        for name in ("elementary_cumulant", "_common_denominator", "_cumulant_over_pi",
                     "_tree_cumulant", "f_top_expansion"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        # f_61 has 178,651 terms; 100 and 400 twos make blocks of up to
        # 100 and 400 parts; 18 distinct generators make 2^36 sub-vector pairs.
        for key in [(61,), (2,) * 100, (2,) * 400, tuple(range(2, 20))]:
            with pytest.raises(ResourceCapError):
                c_const(key)

    def test_wick_products_weighed_by_size(self, monkeypatch):
        # The parts 1 and 3 of f_3's terms are odd, so its groups start no
        # cumulant tree beyond the roots, but the Wick DP's values carry Q
        # once per part.  Weighed by size, 33 groups are admitted (0.4 s
        # cold with start-up) and 34 refused; unweighed, 61 were admitted
        # and took 17.6 s.
        monkeypatch.setattr(stratavol.cumulants, "_wick_tree_sum", lambda *a: (0, 1))
        c_const((3,) * 33)
        with pytest.raises(ResourceCapError):
            c_const((3,) * 34)

    def test_cap_admits_genus_nine(self, monkeypatch):
        # The cap and the expansions run; the DP is stubbed out.
        monkeypatch.setattr(stratavol.cumulants, "_wick_tree_sum", lambda *a: (0, 1))
        for mu in enum_int_partitions(16):
            f_cumulant_leading([p + 1 for p in mu])

    def test_no_complementary_partition_listed(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("complementary partitions were listed")

        monkeypatch.setattr(stratavol.partitions, "_complementary_blocks", forbidden)
        assert volume((3, 2, 1, 1, 1)).volume == volume((1, 1, 1, 2, 3)).volume
        assert not c_const((4, 3, 3, 2)).is_zero()
        assert not wick_leading([[2, 1], [2], [1, 1]]).value.is_zero()

    def test_entries_below_two_rejected(self):
        with pytest.raises(DomainError):
            c_const((2, 1))

    def test_non_integers_rejected(self):
        # c((2, 2)) used to answer (2.5, 2).
        with pytest.raises(DomainError, match="expected an integer, got 2.5"):
            c_const((2.5, 2))
        assert c_const((2.0, 2)) == c_const((2, 2))


class TestPrice:
    """The price of a Wick tree sum or an elementary cumulant
    (``cumulants._check_work``) against the steps its route takes cold,
    counted by tracing the lines that make them."""

    @staticmethod
    def _counted(monkeypatch, call) -> dict[str, int]:
        clear_cumulant_memos()
        stratavol.cumulants._common_denominator.cache_clear()
        stratavol.cumulants._denominator_factor.cache_clear()
        monkeypatch.setattr(stratavol.exact_arith, "_tangent_column", [1])
        monkeypatch.setattr(stratavol.exact_arith, "_bernoulli_memo",
                            {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6)})
        stratavol.exact_arith.frak_z.cache_clear()
        stratavol.exact_arith.frak_z_over_pi.cache_clear()
        steps = {"dp": 0, "tree": 0, "series": 0, "bernoulli": 0}

        def products(pairs) -> int:
            return sum(1 + (a.bit_length() * b.bit_length() >> 20) for a, b in pairs)

        def weighed(lift: int, high: int, low: int) -> int:
            """A weight row's new cells, frak_z(high), frak_z(high - 2), ...
            down to low: a product and a division each, after one product
            for s! Q^p."""
            return 1 + sum(1 + ((lift * stratavol.exact_arith.frak_z_over_pi(j).numerator)
                                .bit_length() ** 2 >> 20) for j in range(high, low - 1, -2))

        # (function, start of a line) -> (kind, steps the line makes); a
        # product or division of an a-bit and a b-bit integer makes
        # 1 + a b / 2^20, from the sizes of the integers as they are.  The
        # cumulant tree's own steps count as "tree": #u for each split
        # walked (it builds the block's and the rest's keys) and each
        # product of a weight or planted sum by a forest cell.
        lines = {
            ("_grow", "forests = _forests("): ("tree", lambda f: len(f["u"])),
            ("_grow", "total += ways * sum("): ("tree", lambda f: 1 + products(
                zip(f["row"], f["forests"]))),
            ("_forests", "planted = ways * _planted("): ("tree", lambda f: len(f["u"])),
            ("_forests", "out[i] += planted * cell"): ("tree", lambda f: products(
                [(f["planted"], f["cell"])])),
            ("_weights", "lift = "): ("series", lambda f: weighed(
                factorial(f["size"]) * f["scale"] ** f["parts"],
                f["top"] - f["first"] - 2 * len(f["row"]), f["top"] - f["stop"])),
            ("dist", "b = blk(head, T)"): ("dp", lambda f: 1),
            ("dist", "got = blk(head, S)"): ("dp", lambda f: 1),
            ("down", "d = dist(rest, R)"): ("dp", lambda f: 1),
            ("blk", "grown = tuple("): ("dp", lambda f: 1),
            ("_wick_tree_sum", "if i == 0 or lam[i - 1] != w]"): ("dp", lambda f: 1),
            ("bernoulli", "nxt.append((k - j)"): ("bernoulli", lambda f: 2),
            ("_denominator_factor", "denominator = frak_z_over_pi(j)"):
                ("bernoulli", lambda f: f["j"] - 2),
        }
        names = {name for name, _ in lines}

        def local(frame, event, arg):
            if event == "line":
                text = linecache.getline(frame.f_code.co_filename, frame.f_lineno).strip()
                for (name, start), (kind, count) in lines.items():
                    if name == frame.f_code.co_name and text.startswith(start):
                        steps[kind] += count(frame.f_locals)
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code.co_name in names else None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            call()
        finally:
            sys.settrace(previous)
        return steps

    @staticmethod
    def _parts(request):
        """(what, values, counts, top, dp) of ``_check_work`` for a request
        of c_const, wick_leading or elementary_cumulant."""
        kind, key = request
        if kind == "cumulant":
            values = sorted(set(key))
            return ("cumulant", [(v,) for v in values], [key.count(v) for v in values],
                    sum(key) - len(key) + 2, ())
        if kind == "wick":
            kinds = sorted(set(key))
            return ("Wick", [tuple(sorted(set(g))) for g in kinds], [key.count(g) for g in kinds],
                    2 + sum(key.count(g) * (g[0] - 1) for g in kinds),
                    [(1, len(g), 0, len(set(g)), len(g) * (len(set(g)) + 1), len(g)) for g in kinds])
        kinds = sorted(set(key), reverse=True)
        return ("Wick", [(*range(1, k - 1), k) for k in kinds], [key.count(k) for k in kinds],
                2 + sum(key.count(k) * (k - 1) for k in kinds),
                [stratavol.cumulants._generator_figures(k)[1] for k in kinds])

    @pytest.mark.parametrize("request_", [
        ("cconst", (2,) * 12), ("cconst", (3,) * 8), ("cconst", (4,) * 6),
        ("cconst", (5,) * 4), ("cconst", (3, 2) * 4), ("cconst", (4, 3, 2) * 2),
        ("cconst", (6, 5, 4, 3, 3)), ("cconst", (5, 4, 3, 2, 2, 2, 2)),
        ("cconst", (12,)), ("cconst", (20,)), ("cconst", (26,)),
        # Three generator types whose parts meet in the block keys: f_5's
        # 1, 2, 3, 5, f_4's 1, 2, 4 and f_2's 2.
        pytest.param(("cconst", (5, 4, 4, 4, 2, 2, 2)), id="cconst-most-widenings"),
        ("wick", ((1,),) * 12), ("wick", ((2, 1),) * 6),
        ("wick", ((3, 1, 1), (2, 2), (2, 1))), ("wick", ((2,), (2,), (1, 1), (3,))),
        ("cumulant", (6, 5, 4, 3)), ("cumulant", (1,) * 10), ("cumulant", (200,)),
        ("cumulant", (30, 30, 29)), ("cumulant", (7, 7, 5, 5, 5, 3)), ("cumulant", (9,) * 6),
        ("cumulant", (90, 80, 70, 60, 50)), ("cumulant", (150,) * 5), ("cumulant", (300, 200)),
        ("cumulant", (40, 37, 34, 31, 28, 25, 22)),
        # Large equal and large distinct parts, each with an even number of
        # even parts so that the tree runs: products of thousands of bits.
        ("cumulant", (100,) * 12), ("cumulant", (120, 119, 118, 117, 116, 115, 114)),
    ], ids=lambda r: f"{r[0]}-{len(r[1])}-{r[1][0]}")
    def test_price_bounds_the_counted_steps(self, monkeypatch, request_):
        kind, key = request_
        call = {"cconst": lambda: c_const(key), "wick": lambda: wick_leading(key),
                "cumulant": lambda: elementary_cumulant(key)}[kind]
        counted = self._counted(monkeypatch, call)
        what, values, counts, top, dp = self._parts(request_)
        # The sizes the price gives the integers it weighs, against the
        # states just computed: Q has at most ``bits`` bits; a tree value
        # at u carries Q once per entry, and a Wick DP value once per
        # element of its groups' terms.
        bits = 3 * top // 2 + 8
        scale, _, planted, forests = stratavol.cumulants._tree_memo["memo"]
        assert scale.bit_length() <= bits
        for u, row in [*((u, [got]) for u, got in planted.items()), *forests.items()]:
            assert max(abs(got) for got in row).bit_length() <= (
                len(u) * bits + factorial(sum(u)).bit_length()), u
        if dp:
            size = sum(c * vs[-1] for vs, c in zip(values, counts))
            most = sum(c * d[5] for c, d in zip(counts, dp)) * bits + size * size.bit_length()
            for memo in stratavol.cumulants._wick_memo["memo"][1:5]:  # leaf, dist, down, blk
                for got in memo.values():
                    for _, value in got if isinstance(got, list) else [(None, got)]:
                        assert abs(value).bit_length() <= most
        if kind == "cconst":  # the expansions' parts, the terms, their scaling and the states' tags
            terms = [f_top_expansion(k).terms for k in sorted(set(key), reverse=True)]
            counted["dp"] += sum(len(lam) for t in terms for lam, _ in t) + len(terms[0])
            counted["dp"] += sum(map(len, terms)) + prod(c + 1 for c in counts)
        elif kind == "wick":
            counted["dp"] += 1 + len(counts) + prod(c + 1 for c in counts)
        # The price by the closed-form bound, then with the tree's states
        # listed: their term bounds the tree's steps, and the rest of the
        # price, listing no state's steps, all else.  A cumulant that
        # vanishes by parity starts no tree.
        monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", 10**30)
        bound = listed = rest = stratavol.cumulants._check_work(what, values, counts, top, dp)
        if kind != "cumulant" or (sum(key) - len(key)) % 2 == 0:
            monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", bound - 1)
            listed = stratavol.cumulants._check_work(what, values, counts, top, dp)
            monkeypatch.setattr(stratavol.cumulants, "_state_steps", lambda u, bits: (0, 0))
            rest = stratavol.cumulants._check_work(what, values, counts, top, dp)
            assert listed < bound
        assert counted["tree"] <= listed - rest
        assert counted["tree"] or (kind == "cumulant" and (sum(key) - len(key)) % 2)
        assert counted["dp"] + counted["series"] + counted["bernoulli"] <= rest

    def test_price_lists_no_state_through_genus_nine(self, monkeypatch):
        # The closed form prices every stratum of genus 2-9, also those of
        # the simple route as --cross-check prices them, so a volume table
        # of genus <= 6 pays only that: listing a stratum's states costs
        # tens of times as much.
        def forbidden(*args):
            raise AssertionError("the price listed the cumulant tree's states")

        monkeypatch.setattr(stratavol.cumulants, "_state_steps", forbidden)
        for genus in range(2, 10):
            for mu in enum_int_partitions(2 * genus - 2):
                key = sorted((p + 1 for p in mu), reverse=True)
                kinds = sorted(set(key), reverse=True)
                stratavol.cumulants.check_generator_work(kinds, [key.count(k) for k in kinds])

    def test_price_admits_every_stratum_through_genus_twelve(self):
        # Priced only; the 2,528 strata with a zero of order >= 2.  Every
        # price is pinned by a digest of them all, so that any change to a
        # price, and to admission or a cap boundary, shows here.
        digest = hashlib.sha256()
        for genus in range(2, 13):
            for mu in enum_int_partitions(2 * genus - 2):
                if mu[0] > 1:
                    key = sorted((p + 1 for p in mu), reverse=True)
                    kinds = sorted(set(key), reverse=True)
                    price = stratavol.cumulants.check_generator_work(
                        kinds, [key.count(k) for k in kinds])
                    digest.update(f"{key} {price}\n".encode())
        assert digest.hexdigest() == (
            "19bb4e130c224667c1919cec0d1b8b15704f5ddfd674310f9d1ae529e61cec72")


class TestCSimple:
    def test_odd_vanishes(self):
        assert c_simple(1).is_zero()
        assert c_simple(3).is_zero()

    def test_two_points(self):
        assert c_simple(2) == PiScalar(Fraction(1, 270), 4)

    def test_matches_general_route(self):
        for n in range(1, 7):
            assert c_simple(n) == c_const((2,) * n), n

    def test_validation(self):
        with pytest.raises(DomainError):
            c_simple(0)


class TestVolume:
    def test_worked_example(self):
        result = volume((3, 1))
        assert result.volume == PiScalar(Fraction(8, 297675), 6)
        assert result.genus == 3
        assert result.dim == 7
        assert result.route == "general"
        assert result.c_const == PiScalar(Fraction(8, 42525), 6)

    def test_two_simple_zeros(self):
        result = volume((1, 1))
        assert result.volume == PiScalar(Fraction(1, 1350), 4)
        assert result.dim == 5
        assert result.route == "simple-closed-form"

    def test_odd_total_rejected(self):
        with pytest.raises(DomainError):
            volume((3,))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            volume(())

    def test_non_integers_rejected(self):
        # The volume of H(3, 1) used to answer (3.7, 1).
        with pytest.raises(DomainError, match="expected an integer, got 3.7"):
            volume((3.7, 1))

    def test_cross_check_simple_routes(self):
        # 12 and 14 groups of one type run the general DP well past the
        # 8 parts that the enumeration oracle covers.
        for mu in [(1, 1), (1, 1, 1, 1), (1,) * 12, (1,) * 14]:
            result = volume(mu, cross_check=True)
            assert result.route == "simple-closed-form"

    def test_pi_power_is_twice_genus(self):
        for mu in [(2,), (1, 1), (4,), (3, 1), (2, 2), (2, 1, 1)]:
            result = volume(mu)
            assert result.volume.pi_pow == 2 * result.genus
            assert result.dim == 2 * result.genus + len(mu) - 1

    def test_volume_equals_constant_over_dim(self):
        result = volume((3, 1))
        assert result.volume == result.c_const / result.dim

    def test_held_stratum_computes_no_state(self, monkeypatch):
        # The benchmark's volume table: the strata of genus 2-5, and those
        # of genus 6 with at most four zeros.  Asked again at once, each
        # reads its states: no cumulant tree runs and no memo dict grows.
        strata = [mu for genus in range(2, 7) for mu in enum_int_partitions(2 * genus - 2)
                  if genus < 6 or len(mu) <= 4]
        assert len(strata) == 63

        def forbidden(*args):
            raise AssertionError("a held stratum computed a cumulant tree state")

        def sizes():
            return [[len(d) for d in memo["memo"][1:]] for memo in
                    (stratavol.cumulants._wick_memo, stratavol.cumulants._tree_memo)]

        clear_cumulant_memos()
        try:
            for mu in strata:
                want, held = volume(mu), sizes()
                with monkeypatch.context() as patch:
                    for name in ("_tree_cumulant", "_grow"):
                        patch.setattr(stratavol.cumulants, name, forbidden)
                    assert volume(mu) == want, mu
                assert sizes() == held, mu
        finally:
            clear_cumulant_memos()

    def test_json_shape(self):
        data = volume((3, 1)).as_json_dict()
        assert data == {
            "mu": [3, 1],
            "genus": 3,
            "dim": 7,
            "c": {"num": "8", "den": "42525", "pi_pow": 6},
            "volume": {"num": "8", "den": "297675", "pi_pow": 6},
            "route": "general",
        }

    def test_stratum_spec_validation(self):
        with pytest.raises(DomainError):
            StratumSpec(IntPartition([2, 1]))
        spec = StratumSpec(IntPartition([3, 1]))
        assert spec.genus == 3 and spec.dim == 7


class TestEndToEndAsymptotics:
    def test_shifted_profile_of_single_double_zero(self):
        # covering counts for the profile (3) = (2) + 1 trend toward c(3)
        from stratavol.coverings import asymptotic_ratio
        from stratavol.exact_arith import pi_approx

        target = c_const((3,)).coeff * pi_approx() ** 4
        near = asymptotic_ratio((3,), 15) / target
        far = asymptotic_ratio((3,), 30) / target
        assert abs(far - 1) < Fraction(15, 100)
        assert abs(far - 1) < abs(near - 1)
