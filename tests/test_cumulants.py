import hashlib
import importlib.util
import json
import linecache
import operator
import random
import sys
import threading
import types
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


REAL_FRESH_STATES = stratavol.cumulants._fresh_states


class RecordedStates(dict):
    """A dict of states that counts the values set in it and records each
    one set over a value it held, as (key, old, new)."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sets, self.rebuilt = 0, []

    def __setitem__(self, key, value) -> None:
        self.sets += 1
        if key in self:
            self.rebuilt.append((key, self[key], value))
        super().__setitem__(key, value)


def clear_cumulant_memos(monkeypatch=None):
    """Forget every state of the Wick tree sum, which the elementary
    cumulant, the Wick sum and c(m) share, so that the next call builds
    them with the common denominator in force.  Returns ``held``: a
    function that gives the common denominator Q of the states in force
    and their dicts, with no name for any of them.  With ``monkeypatch``,
    the states in force and every fresh set a larger Q puts in their place
    are ``RecordedStates``, and ``held.made`` lists each set's dicts.  This
    is the only test code that knows how the memo is laid out."""
    made = []

    def fresh(scale):
        states = tuple(RecordedStates(x) if isinstance(x, dict) else x
                       for x in REAL_FRESH_STATES(scale))
        made.append([x for x in states if isinstance(x, dict)])
        return states

    if monkeypatch is not None:
        monkeypatch.setattr(stratavol.cumulants, "_fresh_states", fresh)
    memo = stratavol.cumulants._wick_memo
    memo["memo"] = stratavol.cumulants._fresh_states(1)

    def held():
        return memo["memo"][0], [x for x in memo["memo"][1:] if isinstance(x, dict)]

    held.made = made
    return held


def entries(held) -> list[int]:
    """The number of entries of each dict of the states in force."""
    return [len(states) for states in held()[1]]


def widenings(states) -> list:
    """The (key, old, new) of every value set again in the recorded dicts
    ``states``, each checked to be a row that a wider one replaced with
    its prefix kept: any other state set twice was built twice."""
    again = [change for memo in states for change in memo.rebuilt]
    for key, old, new in again:
        assert isinstance(old, tuple) and len(new) > len(old) and new[:len(old)] == old, key
    return again


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
        # the Bernoulli numbers decide a key of few parts, the states of
        # the Wick tree sum one of many equal or distinct parts (an odd
        # number of 2s vanishes by parity and prices no state).  Cold, with
        # start-up, (1998,) takes 0.1 s (it vanishes by parity), (1000, 996)
        # 1.2 s, ninety-two 2s 1.0 s and 31, 30, ..., 20 1.4 s on a 2-core
        # Xeon.
        monkeypatch.setattr(stratavol.cumulants, "_cumulant_over_pi", lambda key: Fraction(0))
        for admitted, refused in [((1998,), (1999,)), ((1000, 996), (1001, 997)),
                                  ((2,) * 92, (2,) * 94),
                                  (tuple(range(31, 19, -1)), tuple(range(32, 20, -1)))]:
            elementary_cumulant(admitted)
            with pytest.raises(ResourceCapError, match="cumulant work"):
                elementary_cumulant(refused)

    def test_memoized_on_sorted_key(self, monkeypatch):
        # The cumulant is the Wick tree sum over one group per entry, whose
        # states are keyed by the groups' labels and multiplicities, so the
        # states of (3, 2, 2, 1, 1) serve its sub-keys: each builds only
        # the few states of its own root that the key did not reach, none
        # twice, and a key asked again builds none.
        held = clear_cumulant_memos(monkeypatch)
        first = elementary_cumulant((1, 1, 2, 2, 3))
        assert widenings(held()[1]) == []
        keys = [(3, 2, 2, 1, 1), (1, 1, 2, 2), (2, 2, 1), (2, 2), (1, 1), (2, 1), (2,), (1,)]
        built = []
        for key in keys:
            before = sum(memo.sets for memo in held()[1])
            assert elementary_cumulant(key).coeff == cumulant_by_set_partitions(key), key
            built.append(sum(memo.sets for memo in held()[1]) - before)
        assert built == [0, 6, 3, 4, 2, 0, 0, 1]
        assert widenings(held()[1]) == [] and len(held.made) == 2  # Q = 1, then the key's
        assert elementary_cumulant((3, 2, 2, 1, 1)) == first
        assert first.coeff == cumulant_by_set_partitions((3, 2, 2, 1, 1))

    def test_cap_checked_with_memo_filled(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a state of the Wick tree sum was computed")

        held = clear_cumulant_memos()
        elementary_cumulant((1,) * 4)
        filled = entries(held)
        assert any(filled)
        for name in ("_common_denominator", "_wick_tree_sum", "vector_splits", "frak_z_over_pi"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        with pytest.raises(ResourceCapError):
            elementary_cumulant((2,) * 100)
        assert entries(held) == filled


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

    def test_super_key_widens_an_entry(self, monkeypatch):
        # Both keys have |v| - #v + 2 = 8, so they share one memo.  A block
        # weight row and a closed row are kept to the degrees asked for so
        # far: inside (4, 2, 2, 2, 1) the planted sub-block {2, 2, 2}, of
        # weight row (6, 3), has no planted child, inside (4, 2, 2, 2, 1, 1)
        # it can have one, so the super key widens that row and closed rows
        # that the key built, each keeping its cells, and builds no other
        # state twice (rows that the key itself widened are checked first).
        held = clear_cumulant_memos(monkeypatch)
        small = stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1))
        scale, states = held()
        for memo in states:
            widenings([memo])
            memo.rebuilt.clear()
        big = stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1, 1))
        assert held()[0] == scale and all(map(operator.is_, held()[1], states))
        widened = {key: (len(old), len(new)) for key, old, new in widenings(states)}
        assert widened[6, 3] == (1, 2) and len(widened) > 3
        assert small == cumulant_by_set_partitions((4, 2, 2, 2, 1))
        assert big == cumulant_by_set_partitions((4, 2, 2, 2, 1, 1))
        grown = entries(held)
        assert stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1)) == small
        assert entries(held) == grown
        clear_cumulant_memos()
        assert stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1, 1)) == big
        assert stratavol.cumulants._cumulant_over_pi((4, 2, 2, 2, 1)) == small

    def test_volume_table_builds_each_sub_multiset_once(self, monkeypatch):
        # The benchmark's volume_table strata from cold: the states are
        # replaced once per growth of the common denominator Q (five
        # values of it), and under each Q every state is built once, a row
        # that a later key needs to more degrees gaining only the cells of
        # those degrees.  A second pass builds at the last Q the states of
        # the strata before its growth, and a third builds none.  The same
        # from cold again; every volume is unchanged.
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        strata = workloads.volume_strata()
        want = [volume(mu).volume for mu in strata]
        built = []
        for _ in range(2):
            held = clear_cumulant_memos(monkeypatch)
            try:
                scales = []
                for mu, got in zip(strata, want):
                    assert volume(mu).volume == got, mu
                    scales += [held()[0]] if held()[0] not in scales else []
                first = entries(held)
                assert [volume(mu).volume for mu in strata] == want
                grown = entries(held)
                sets = sum(memo.sets for memo in held()[1])
                assert [volume(mu).volume for mu in strata] == want
                assert entries(held) == grown and sum(grown) > sum(first)
                assert sum(memo.sets for memo in held()[1]) == sets
                widened = [len(widenings(states)) for states in held.made]
                assert len(held.made) == 6 and sum(widened) > 0  # Q = 1, then the five
            finally:
                clear_cumulant_memos()
            built.append((scales, first, grown, widened))
        assert built[0] == built[1] and len(built[0][0]) == 5

    def test_inexact_rescale_raises(self, monkeypatch):
        # A common denominator of (5, 4, 2) that lacks the factor 7 of
        # frak_z(6) = 31/15120 cannot scale the weight 5! frak_z(6) = 31/126
        # of its root sub-block {5}: the weight row refuses it where it is
        # built.
        real = stratavol.cumulants._common_denominator
        monkeypatch.setattr(stratavol.cumulants, "_common_denominator",
                            lambda top: real(top) // 7 if top == 10 else real(top))
        clear_cumulant_memos()
        with pytest.raises(ArithmeticError, match="/15120 is not") as caught:
            elementary_cumulant((5, 4, 2))
        assert "weight" in [entry.name for entry in caught.traceback]
        clear_cumulant_memos()

    @pytest.mark.parametrize("size", range(2, 8))
    def test_planted_sums_match_oracle_and_vanish_by_parity(self, size):
        # Every sorted u of ``size`` with up to 5 parts: the sum over
        # planted trees of sub-blocks on u (a sub-block entered through a
        # tau edge, ``sub(0, S)``), which a root group whose one part is 0
        # opens, against one term per set partition and degree sequence.
        # It is 0 whenever |u| - #u is even, the parity at which the tree
        # sum returns before any state.  The root's part carries one Q.
        held = clear_cumulant_memos()
        nonzero = 0
        for u in [key for key in keys_up_to(5, size) if sum(key) == size]:
            kinds = sorted(set(u))
            total, denominator = stratavol.cumulants._wick_tree_sum(
                [(0,)] + [(v,) for v in kinds], [(((0,), 1),)] + [(((v,), 1),) for v in kinds],
                (1,) + tuple(map(u.count, kinds)), size - len(u) + 2)
            want = planted_by_set_partitions(u)
            assert Fraction(total, denominator) * (held()[0] if total else 1) == want, u
            if (size - len(u)) % 2 == 0:
                assert want == 0 and total == 0, u
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
        held = clear_cumulant_memos()
        c_const((3, 2, 2))
        scale, states = held()
        assert scale > 1 and sum(map(len, states)) > len(states)
        clear_cumulant_memos()
        assert held() == (1, [x for x in REAL_FRESH_STATES(1) if isinstance(x, dict)])

    # Requests of the three entries that share the states, at common
    # denominators that grow along the list: the singleton group (3,) is
    # the type of the cumulant's entry 3.
    MIXED = [("cumulant", (3,)), ("wick", ((3,), (3,))), ("cumulant", (3, 3)), ("cconst", (3, 3)),
             ("wick", ((3,), (2, 1), (1, 1))), ("cumulant", (5, 3, 3, 1)), ("cconst", (5, 4, 3)),
             ("wick", ((5, 3), (3,), (2,))), ("cconst", (7, 5, 3)), ("cumulant", (9, 7, 4)),
             ("cconst", (9, 6))]

    @staticmethod
    def run(request):
        kind, key = request
        if kind == "volume":
            result = volume(key)
            return result.volume.as_json_dict(), result.c_const.as_json_dict()
        return {"cumulant": elementary_cumulant, "cconst": c_const,
                "wick": lambda groups: wick_leading(groups).value}[kind](key)

    @settings(max_examples=6, deadline=None)
    @given(order=st.permutations(range(len(GOLDEN_GENUS_2_TO_6) + len(MIXED))), cold=st.booleans())
    def test_volumes_in_any_order_cold_or_warm(self, order, cold):
        # The golden volumes of genus 2-6 and the mixed requests, in any
        # order, against their values from a cleared memo: no result
        # depends on which states an earlier request left, or at which Q.
        requests = [("volume", tuple(row["mu"])) for row in GOLDEN_GENUS_2_TO_6] + self.MIXED
        want = [(row["volume"], row["c"]) for row in GOLDEN_GENUS_2_TO_6]
        want += self.cold([lambda request=request: self.run(request) for request in self.MIXED])
        assert want[-len(self.MIXED) + 1] == want[-len(self.MIXED) + 2]  # (3,), (3,) and (3, 3)
        if cold:
            clear_cumulant_memos()
        for i in order:
            assert self.run(requests[i]) == want[i], requests[i]

    def test_larger_reach_replaces_the_memo(self):
        want = self.cold([lambda key=key: c_const(key) for key in self.SMALL + self.BIG])
        held = clear_cumulant_memos()
        assert [c_const(key) for key in self.SMALL] == want[:len(self.SMALL)]
        small_scale, small = held()
        states = [len(memo) for memo in small]
        assert sum(states) > len(states)
        assert [c_const(key) for key in self.BIG] == want[len(self.SMALL):]
        big_scale, big = held()
        assert not any(map(operator.is_, big, small))
        assert big_scale % small_scale == 0 and big_scale > small_scale
        assert [len(memo) for memo in small] == states  # replaced, not cleared in place
        assert [c_const(key) for key in self.SMALL] == want[:len(self.SMALL)]
        assert all(map(operator.is_, held()[1], big))

    @staticmethod
    def scalings(monkeypatch):
        """The coefficients passed to ``_scaled`` from now on, by identity:
        f_top_expansion is memoized, so each coefficient of f_k is one
        object, and the calls on those objects are k's scalings."""
        calls, real = [], stratavol.cumulants._scaled

        def counted(value, scale):
            calls.append(value)
            return real(value, scale)

        monkeypatch.setattr(stratavol.cumulants, "_scaled", counted)

        def of(k):
            coeffs = {id(coeff) for _, coeff in f_top_expansion(k).terms}
            return sum(id(value) in coeffs for value in calls)

        return calls, of

    def test_each_generator_scaled_once_per_q(self, monkeypatch):
        keys = [(4, 3, 2), (3, 2, 2), (5, 3), (7, 5, 3)]
        want = self.cold([lambda key=key: c_const(key) for key in keys])
        held = clear_cumulant_memos()
        calls, scalings = self.scalings(monkeypatch)
        terms = {k: len(f_top_expansion(k).terms) for k in range(2, 8)}
        # Q(8) for (4, 3, 2) and (5, 3), Q(6) for (3, 2, 2): one memo.
        assert c_const(keys[0]) == want[0]
        assert [scalings(k) for k in (4, 3, 2)] == [terms[4], terms[3], terms[2]]
        first = held()[1]
        calls.clear()
        assert c_const(keys[0]) == want[0] and calls == []
        assert c_const(keys[1]) == want[1]
        assert scalings(3) == scalings(2) == 0
        assert c_const(keys[2]) == want[2]
        assert scalings(5) == terms[5] and scalings(3) == 0
        assert all(map(operator.is_, held()[1], first))
        # Q(14) holds 13, which Q(8) lacks: fresh states scale 3 and 5 again.
        calls.clear()
        assert c_const(keys[3]) == want[3]
        assert not any(map(operator.is_, held()[1], first))
        assert [scalings(k) for k in (7, 5, 3)] == [terms[7], terms[5], terms[3]]
        clear_cumulant_memos()

    def test_a_lone_group_keeps_no_type(self, monkeypatch):
        # A lone group's type is scaled on every call, so that the memo
        # does not grow with one large generator; types of two groups or
        # more are scaled once per Q.
        clear_cumulant_memos()
        calls, scalings = self.scalings(monkeypatch)
        for _ in range(2):
            c_const((9,))
            assert scalings(9) == len(f_top_expansion(9).terms)
            calls.clear()
            wick_leading([[4, 2]])
            assert len(calls) == 1
            calls.clear()
        c_const((9, 2, 2))
        assert scalings(9) == len(f_top_expansion(9).terms) and scalings(2) == 1
        calls.clear()
        c_const((9, 2, 2))
        assert calls == []
        clear_cumulant_memos()

    def test_generator_and_group_types_keep_their_own_entries(self, monkeypatch):
        # The group (3,) and the generator f_3 share the part 3 but are
        # different types: each is scaled once, and neither call reads the
        # other's terms.  Values in either order are checked by the test
        # below.
        want = self.cold([lambda: wick_leading([[3], [3]]).value,
                          lambda: f_cumulant_leading((3, 3))])
        clear_cumulant_memos()
        calls, scalings = self.scalings(monkeypatch)
        assert wick_leading([[3], [3]]).value == want[0]
        assert len(calls) == 1 and scalings(3) == 0
        calls.clear()
        assert f_cumulant_leading((3, 3)) == want[1]
        assert len(calls) == scalings(3) == len(f_top_expansion(3).terms) > 1
        calls.clear()
        assert wick_leading([[3], [3]]).value == want[0] and f_cumulant_leading((3, 3)) == want[1]
        assert calls == []
        clear_cumulant_memos()

    def test_wick_and_generator_calls_do_not_collide(self):
        # The group (3,) and the generator f_3 are different types with
        # the same part 3; both kinds of call share the block weights only.
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
        # The Wick tree sum over one group per entry against one term per
        # set partition.
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
        # The sub-block (5, 1) closes with 6! frak_z(6) = 31/21 pi^6, and
        # the sub-blocks of c(6, 2) with weights whose denominators hold 7
        # as well; a common denominator without 7 refuses them where the
        # Wick tree sum builds its block weights, whichever entry asks.
        real = stratavol.cumulants._common_denominator
        assert elementary_cumulant((5, 1)) == PiScalar(Fraction(31, 21), 6)
        monkeypatch.setattr(stratavol.cumulants, "_common_denominator",
                            lambda top: real(top) // 7 if real(top) % 7 == 0 else real(top))
        try:
            for call in (lambda: elementary_cumulant((5, 1)), lambda: wick_leading([[5], [1]]),
                         lambda: f_cumulant_leading((6, 2))):
                clear_cumulant_memos()
                with pytest.raises(ArithmeticError, match="is not an integer") as caught:
                    call()
                names = [entry.name for entry in caught.traceback]
                assert "_wick_tree_sum" in names and "weight" in names, names
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

        for name in ("_common_denominator", "_cumulant_over_pi", "_wick_tree_sum"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        # One type each: 600 groups (1), whose sub-blocks hold up to 600
        # parts, and 40 groups (2, 1), whose states' values carry Q 80
        # times.
        for groups in ([[1]] * 600, [[2, 1]] * 40):
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
            assert {(sum(lam) - len(lam)) % 2 for lam in terms} == {steps[6]}, k
            assert values == tuple(sorted({p for lam in terms for p in lam})), k

    def test_cap_checked_before_any_cumulant(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an expansion or a cumulant was computed")

        for name in ("elementary_cumulant", "_common_denominator", "_cumulant_over_pi",
                     "_wick_tree_sum", "f_top_expansion"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        # f_61 has 178,651 terms; 100 and 400 twos make blocks of up to
        # 100 and 400 parts; 19 distinct generators make 3^18 pairs of
        # sub-vectors.
        for key in [(61,), (2,) * 100, (2,) * 400, tuple(range(2, 21))]:
            with pytest.raises(ResourceCapError):
                c_const(key)

    def test_wick_products_weighed_by_size(self, monkeypatch):
        # The terms of f_3 have even |lam| - len(lam), so its groups open
        # no planted sub-block, but the DP's values carry Q once per part.
        # Weighed by size, 34 groups are admitted (0.3 s cold with
        # start-up) and 35 refused; unweighed, 61 were admitted and took
        # 17.6 s.
        monkeypatch.setattr(stratavol.cumulants, "_wick_tree_sum", lambda *a: (0, 1))
        c_const((3,) * 34)
        with pytest.raises(ResourceCapError):
            c_const((3,) * 35)

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
    def _counted(monkeypatch, call) -> tuple[dict[str, int], object]:
        """The steps of ``call`` by kind, and ``held`` of its states."""
        held = clear_cumulant_memos()
        stratavol.cumulants._common_denominator.cache_clear()
        stratavol.cumulants._denominator_factor.cache_clear()
        monkeypatch.setattr(stratavol.exact_arith, "_tangent_column", [1])
        monkeypatch.setattr(stratavol.exact_arith, "_bernoulli_memo",
                            {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6)})
        stratavol.exact_arith.frak_z.cache_clear()
        stratavol.exact_arith.frak_z_over_pi.cache_clear()
        steps = {"dp": 0, "series": 0, "bernoulli": 0}
        lines = TestPrice._lines()
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
        return steps, held

    @staticmethod
    def _lines() -> dict:
        """The lines that ``_counted`` traces."""

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
        # 1 + a b / 2^20, from the sizes of the integers as they are.  A
        # state read from the memo is a step; every product of two DP
        # values is weighed.
        return {
            ("dist", "b = sub_memo.get("): ("dp", lambda f: 1),
            ("dist", "got += ways * b * d"): ("dp", lambda f: products([(f["b"], f["d"])])),
            ("dist", "got = sub(head, S)"): ("dp", lambda f: 1),
            ("down", "d = dist(rest, R)"): ("dp", lambda f: 1),
            ("down", "by_part[w] = "): ("dp", lambda f: products([(f["coeff"], f["d"])])),
            ("kids", "own = down(T1)"): ("dp", lambda f: 1),
            ("kids", "by_size[grown] = "): ("dp", lambda f: products([(f["d"], f["e"])])),
            ("forests", "planted = sub(0, A)"): ("dp", lambda f: 1),
            ("forests", "by_count[k + 1] = "): ("dp", lambda f: products(
                [(f["planted"], f["cell"])])),
            ("closed", "cells = list(map(add, "): ("dp", lambda f: products(
                (f["e"], cell) for cell in f["own"])),
            ("sub", "forest = forest_memo.get("): ("dp", lambda f: 1),
            ("sub", "row = closed_memo.get("): ("dp", lambda f: 1),
            ("sub", "got += ways * "): ("dp", lambda f: 1 + products(
                (cell, f["row"][(f["d0"] + k) >> 1]) for k, cell in f["forest"])),
            ("weight", "lift, top = "): ("series", lambda f: weighed(
                factorial(f["s"]) * f["scale"] ** f["p"],
                f["s"] - f["p"] + 2 - (f["s"] - f["p"]) % 2 - 2 * len(f["row"]),
                f["s"] - f["p"] + 2 - (f["s"] - f["p"]) % 2 - 2 * (f["degree"] >> 1))),
            ("_wick_tree_sum", "if i == 0 or lam[i - 1] != w]"): ("dp", lambda f: 1),
            ("bernoulli", "nxt.append((k - j)"): ("bernoulli", lambda f: 2),
            ("_denominator_factor", "denominator = frak_z_over_pi(j)"):
                ("bernoulli", lambda f: f["j"] - 2),
        }

    def test_counted_lines_are_in_the_source(self):
        # ``_counted`` adds a line's steps only if the line starts with its
        # pattern, so a line rewritten without it would drop out of the
        # count unseen: each pattern must start a line that a function of
        # its name runs, in cumulants.py or exact_arith.py.
        run = set()
        for module in (stratavol.cumulants, stratavol.exact_arith):
            source = Path(module.__file__).read_text()
            text, codes = source.splitlines(), [compile(source, module.__file__, "exec")]
            while codes:
                code = codes.pop()
                codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
                run |= {(code.co_name, text[line - 1].strip())
                        for _, _, line in code.co_lines() if line}
        missing = [(name, start) for name, start in self._lines()
                   if not any(n == name and line.startswith(start) for n, line in run)]
        assert not missing

    @staticmethod
    def _parts(request):
        """(what, values, counts, top, dp) of ``_check_work`` for a request
        of c_const, wick_leading or elementary_cumulant."""
        kind, key = request
        if kind == "cumulant":
            values = sorted(set(key))
            return ("cumulant", [(v,) for v in values], [key.count(v) for v in values],
                    sum(key) - len(key) + 2, [(1, 1, 0, 1, 2, 1, (v - 1) % 2) for v in values])
        if kind == "wick":
            kinds = sorted(set(key))
            return ("Wick", [tuple(sorted(set(g))) for g in kinds], [key.count(g) for g in kinds],
                    2 + sum(key.count(g) * (g[0] - 1) for g in kinds),
                    [(1, len(g), 0, len(set(g)), len(g) * (len(set(g)) + 1), len(g),
                      (sum(g) - len(g)) % 2) for g in kinds])
        kinds = sorted(set(key), reverse=True)
        return ("Wick", [(*range(1, k - 1), k) for k in kinds], [key.count(k) for k in kinds],
                2 + sum(key.count(k) * (k - 1) for k in kinds),
                [stratavol.cumulants._generator_figures(k)[1] for k in kinds])

    @pytest.mark.parametrize("request_", [
        ("cconst", (2,) * 12), ("cconst", (3,) * 8), ("cconst", (4,) * 6),
        ("cconst", (5,) * 4), ("cconst", (3, 2) * 4), ("cconst", (4, 3, 2) * 2),
        ("cconst", (6, 5, 4, 3, 3)), ("cconst", (5, 4, 3, 2, 2, 2, 2)),
        ("cconst", (12,)), ("cconst", (20,)), ("cconst", (26,)),
        # Three generator types whose parts meet in the sub-blocks: f_5's
        # 1, 2, 3, 5, f_4's 1, 2, 4 and f_2's 2.
        pytest.param(("cconst", (5, 4, 4, 4, 2, 2, 2)), id="cconst-most-widenings"),
        ("wick", ((1,),) * 12), ("wick", ((2, 1),) * 6),
        ("wick", ((3, 1, 1), (2, 2), (2, 1))), ("wick", ((2,), (2,), (1, 1), (3,))),
        ("cumulant", (6, 5, 4, 3)), ("cumulant", (1,) * 10), ("cumulant", (200,)),
        ("cumulant", (30, 30, 29)), ("cumulant", (7, 7, 5, 5, 5, 3)), ("cumulant", (9,) * 6),
        ("cumulant", (90, 80, 70, 60, 50)), ("cumulant", (150,) * 5), ("cumulant", (300, 200)),
        ("cumulant", (40, 37, 34, 31, 28, 25, 22)),
        # Large equal and large distinct parts, each with an even number of
        # even parts so that the sum does not vanish by parity: products
        # of thousands of bits.
        ("cumulant", (100,) * 12), ("cumulant", (120, 119, 118, 117, 116, 115, 114)),
        # One part per group, of both parities: the planted sums and their
        # forest rows, which the price counts per pair of the parity that
        # sums, take nearly all of the price by size.
        ("cumulant", (4, 3, 2, 1) * 4),
    ], ids=lambda r: f"{r[0]}-{len(r[1])}-{r[1][0]}")
    def test_price_bounds_the_counted_steps(self, monkeypatch, request_):
        kind, key = request_
        call = {"cconst": lambda: c_const(key), "wick": lambda: wick_leading(key),
                "cumulant": lambda: elementary_cumulant(key)}[kind]
        counted, held = self._counted(monkeypatch, call)
        what, values, counts, top, dp = self._parts(request_)
        vanishes = sum(c * d[6] for c, d in zip(counts, dp)) % 2
        # A sum that vanishes by parity does no DP work.
        assert bool(counted["dp"]) != bool(vanishes)
        # The sizes the price gives the integers it weighs, against the
        # states just computed: Q has at most 3 top / 2 + 8 bits, and every
        # integer held at most (n + 1) ``group`` bits for n groups.
        scale, states = held()
        size = sum(vs[-1] * c for vs, c in zip(values, counts))
        group = (max(d[5] for d in dp) * (3 * top // 2 + 8)
                 + max(vs[-1] for vs in values) * (size.bit_length() - 1) + size.bit_length())
        assert scale.bit_length() <= 3 * top // 2 + 8 or vanishes
        most = (sum(counts) + 1) * group
        for got in (got for memo in states for got in memo.values()):
            assert all(abs(value).bit_length() <= most for value in self._ints(got))
        if kind == "cconst":  # the expansions' parts, the terms, their scaling and the states' tags
            terms = [f_top_expansion(k).terms for k in sorted(set(key), reverse=True)]
            counted["dp"] += sum(len(lam) for t in terms for lam, _ in t) + len(terms[0])
            counted["dp"] += sum(map(len, terms)) + prod(c + 1 for c in counts)
        elif kind == "wick":
            counted["dp"] += 1 + len(counts) + prod(c + 1 for c in counts)
        # The price with every size at its largest, and by size, which a
        # cap just below the first forces (the price then, or its refusal,
        # gives it) unless building the tables would cost more than the
        # cap leaves, as for requests priced under 10^4: each bounds the
        # steps.
        monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", 10**30)
        largest = stratavol.cumulants._check_work(what, values, counts, top, dp)
        monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", largest - 1)
        try:
            by_size = stratavol.cumulants._check_work(what, values, counts, top, dp)
        except ResourceCapError as refused:
            by_size = int(str(refused).split()[5])
        total = counted["dp"] + counted["series"] + counted["bernoulli"]
        assert total <= min(by_size, largest), (counted, by_size, largest)
        assert by_size < largest or vanishes or largest < 10**4, (by_size, largest)

    @classmethod
    def _ints(cls, value):
        """The integers in a held value, however nested."""
        if isinstance(value, int):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from cls._ints(item)

    def test_price_lists_no_state_through_genus_nine(self, monkeypatch):
        # The closed form, with every size at its largest, prices every
        # stratum of genus 2-9, also those of the simple route as
        # --cross-check prices them: pricing by size costs many times as
        # much.  At the default cap no stratum to genus 10 is priced at all
        # (``cumulants.GENERATOR_PRICE_PIN``); this is what their price
        # costs under a cap below that pin, and for ``fk``.
        def forbidden(*args):
            raise AssertionError("the price summed the states by size")

        monkeypatch.setattr(stratavol.cumulants, "_by_size", forbidden)
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
            "0aa0550795b1f3cddfe19ab028783f26234f73e89506d1194ac698b527d447c1")

    def test_pins_are_the_largest_prices_of_their_boxes(self, monkeypatch):
        # Every generator key of reach |m| - l(m) + 2 <= 20 (entries >= 2)
        # and every cumulant key of |m| <= 20, priced at the default cap and
        # at a cap equal to its pin: none is refused and the largest price
        # is the pin.  A key is admitted when its first sum fits the cap, or
        # its sum by size and the cost of its tables do, so admission only
        # grows with the cap: every key of a box is admitted at any cap at
        # least its pin, which is when it is admitted unpriced.
        generators = [("cconst", tuple(p + 1 for p in mu))
                      for size in range(1, 19) for mu in enum_int_partitions(size)]
        cumulants = [("cumulant", tuple(mu))
                     for size in range(1, 21) for mu in enum_int_partitions(size)]
        assert (len(generators), len(cumulants)) == (1596, 2713)
        for box, pin in ((generators, stratavol.cumulants.GENERATOR_PRICE_PIN),
                         (cumulants, stratavol.cumulants.CUMULANT_PRICE_PIN)):
            for cap in (stratavol.cumulants.WICK_WORK_CAP, pin):
                monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", cap)
                prices = [stratavol.cumulants._check_work(*self._parts(r)) for r in box]
                assert max(prices) == pin, cap

    @staticmethod
    def _priced(monkeypatch) -> list[str]:
        """The requests priced from now on, by ``_check_work``'s first argument."""
        priced, price = [], stratavol.cumulants._check_work

        def counted(what, *figures):
            priced.append(what)
            return price(what, *figures)

        monkeypatch.setattr(stratavol.cumulants, "_check_work", counted)
        return priced

    def test_a_cap_below_a_pin_prices_again(self, monkeypatch):
        want = c_const((3, 3)), elementary_cumulant((2, 2))
        priced = self._priced(monkeypatch)
        assert (c_const((3, 3)), elementary_cumulant((2, 2))) == want
        assert priced == []
        pins = stratavol.cumulants.GENERATOR_PRICE_PIN, stratavol.cumulants.CUMULANT_PRICE_PIN
        monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", pins[0] - 1)
        assert (c_const((3, 3)), elementary_cumulant((2, 2))) == want
        assert priced == ["Wick tree sum"]
        monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", pins[1] - 1)
        assert (c_const((3, 3)), elementary_cumulant((2, 2))) == want
        assert priced == ["Wick tree sum"] * 2 + ["cumulant"]
        monkeypatch.setattr(stratavol.cumulants, "WICK_WORK_CAP", 1)
        with pytest.raises(ResourceCapError):
            c_const((3, 3))
        with pytest.raises(ResourceCapError):
            elementary_cumulant((2, 2))

    def test_keys_past_the_boxes_are_priced(self, monkeypatch):
        # Reach 20 and |m| = 20 are the boxes' edges; reach 21 (which
        # vanishes by parity after its price) and |m| = 21 are past them,
        # also through volume at genus 11.
        priced = self._priced(monkeypatch)
        c_const((19,))
        c_const((10, 10))
        elementary_cumulant((11, 9))
        volume((18,))
        assert priced == []
        assert c_const((20,)).is_zero() and c_const((11, 10)).is_zero()
        elementary_cumulant((11, 10))
        volume((20,))
        assert priced == ["Wick tree sum"] * 2 + ["cumulant", "Wick tree sum"]


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
        # reads its states: no split is walked and no memo dict grows.
        strata = [mu for genus in range(2, 7) for mu in enum_int_partitions(2 * genus - 2)
                  if genus < 6 or len(mu) <= 4]
        assert len(strata) == 63

        def forbidden(*args):
            raise AssertionError("a held stratum computed a state")

        held = clear_cumulant_memos()
        try:
            for mu in strata:
                want, grown = volume(mu), entries(held)
                with monkeypatch.context() as patch:
                    patch.setattr(stratavol.cumulants, "vector_splits", forbidden)
                    assert volume(mu) == want, mu
                assert entries(held) == grown, mu
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
