import importlib.util
import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial
from pathlib import Path

import pytest

from stratavol.characters import (
    character,
    character_cache,
    conjugacy_class_size,
    dimension,
)
import stratavol.coverings
import stratavol.partitions
from stratavol.coverings import (
    BRUTE_FORCE_WORK_CAP,
    BURNSIDE_PRODUCT_CAP,
    BURNSIDE_WORK_CAP,
    _Moments,
    _burnside_sums,
    _check_sweep_cap,
    _moment_bounds,
    _moment_sums,
    _moment_table,
    _state_terms,
    _sweep,
    CoverCountRecord,
    CoverProfile,
    asymptotic_ratio,
    brute_force_hom_count,
    brute_force_work,
    burnside_work,
    check_brute_force_caps,
    check_burnside_cap,
    cov_connected_series,
    cov_d,
    cov_prime_series,
    cov_series,
)
from stratavol.cli import main
from stratavol.errors import DomainError, ResourceCapError
from stratavol.partitions import enum_int_partitions, iter_int_partitions
from stratavol.qseries import QSeries, euler_series
from stratavol.shifted_symmetric import q_average

from .oracles import connected_by_set_partitions, partition_count

TESTS = Path(__file__).resolve().parent


class TestCovD:
    def test_empty_profile_counts_partitions(self):
        for d in range(9):
            assert cov_d((), d) == partition_count(d)

    def test_degree_zero_conventions(self):
        assert cov_d((), 0) == 1
        assert cov_d((2,), 0) == 0

    def test_single_transposition_vanishes(self):
        assert cov_d((2,), 2) == 0

    def test_two_transpositions(self):
        assert cov_d((2, 2), 2) == 2

    def test_parity_vanishing(self):
        # the total ramification sum (m_i - 1) odd forces zero
        for profile in [(2,), (3, 2), (4, 3), (2, 2, 2)]:
            shift = sum(m - 1 for m in profile)
            if shift % 2 == 1:
                for d in range(1, 6):
                    assert cov_d(profile, d) == 0

    def test_symmetric_in_profile(self):
        for d in range(1, 6):
            assert cov_d((4, 2), d) == cov_d((2, 4), d)

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            CoverProfile((1, 2))


def _burnside_by_murnaghan_nakayama(profile, d):
    """Sum over lam of d of prod_i |C_i| chi(C_i) / dim(lam), characters by
    Murnaghan-Nakayama."""
    total = Fraction(0)
    for lam in enum_int_partitions(d):
        term = Fraction(1)
        for m in profile:
            rho = [m] + [1] * (d - m)
            term *= Fraction(conjugacy_class_size(rho) * character(lam, rho), dimension(lam))
        total += term
    return total


class TestBurnsideRoute:
    def test_single_twelve_cycle(self):
        assert cov_d((12,), 14) == _burnside_by_murnaghan_nakayama((12,), 14)

    def test_profiles_against_murnaghan_nakayama(self):
        profiles = [(2, 2), (3, 2), (4, 3), (2, 2, 2, 2), (3, 3, 3), (5, 5), (6, 3, 2)]
        for profile in profiles:
            for d in range(max(profile), 11):
                assert cov_d(profile, d) == _burnside_by_murnaghan_nakayama(profile, d)

    def test_character_cache_untouched(self):
        # A profile no other test uses: the Burnside sums read no
        # character values, cold or warm.
        size = len(character_cache())
        first = cov_d((7, 5, 2), 16)
        assert len(character_cache()) == size
        assert cov_d((7, 5, 2), 16) == first

    def test_full_cycle_closed_form(self):
        # f_d is nonzero only on the hooks (d-k, 1^k), where it is
        # (-1)^k (d-1)! / C(d-1, k) = (-1)^k k! (d-1-k)!.
        for d in (12, 24, 40):
            want = sum((-1) ** k * factorial(k) * factorial(d - 1 - k) for k in range(d))
            assert cov_d((d,), d) == want

    def test_long_cycles_derive_no_content_polynomial(self):
        # Cycles past the closed-form cutoff go through the rim-hook
        # residues, whose cost does not grow with the cycle length.
        assert cov_d((30,), 32) == _burnside_by_murnaghan_nakayama((30,), 32)
        assert cov_d((17, 9), 28) != 0


def _cold(monkeypatch):
    """Empty the Burnside memo and the moment tables; the process-wide ones
    come back when the test ends."""
    monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
    monkeypatch.setattr(stratavol.coverings, "_moment_tables", {})


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty Burnside memo and no moment tables for the test, the
    process-wide ones restored after it."""
    _cold(monkeypatch)


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(stratavol.coverings, name, forbidden)


def _moment_states() -> int:
    return sum(len(row) for table in stratavol.coverings._moment_tables.values()
               for row in table.rows.values())


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", TESTS.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _count_sweeps(monkeypatch) -> list[int]:
    """The degrees the Burnside sums sweep from now on, in call order."""
    degrees = []

    def counted(d):
        degrees.append(d)
        return iter_int_partitions(d)

    monkeypatch.setattr(stratavol.coverings, "iter_int_partitions", counted)
    return degrees


def _covering_call(kind, profile, n):
    if kind == "cov_d":
        return cov_d(profile, n)
    if kind == "series":
        return cov_connected_series(profile, n)
    return asymptotic_ratio(profile, n)


# (4,)*6 goes by the sweep from degree 4 on (TestRoutes), the other short
# profiles by content moments.
MEMO_PROFILES = [(2, 2), (3, 2), (4, 3), (6, 4), (2, 2, 2), (4, 4, 4, 4, 4, 4)]
MEMO_CALLS = [(kind, profile, n) for profile in MEMO_PROFILES
              for kind, n in (("cov_d", 0), ("cov_d", 6), ("cov_d", 11),
                              ("series", 9), ("ratio", 11), ("ratio", 4))]


class TestBurnsideKernel:
    def test_many_keys_match_one_key_and_murnaghan_nakayama(self, monkeypatch):
        # Every profile with at most three points and entries 2..6 is a
        # sub-profile of the one with three of each; one sweep of that one
        # must store them all, each equal to its sum from an empty memo.
        keys = [key for s in (1, 2, 3)
                for key in combinations_with_replacement(range(2, 7), s)]
        for d in range(13):
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _burnside_sums([m for m in range(2, 7) for _ in range(3)], d)
            degrees = _count_sweeps(monkeypatch)
            sums = [_burnside_sums(key, d) for key in keys]
            monkeypatch.undo()
            assert degrees == [], d
            for key, got in zip(keys, sums):
                monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
                assert got == _burnside_sums(key, d), (key, d)
                want = _burnside_by_murnaghan_nakayama(key, d) if max(key) <= d else 0
                assert got == want, (key, d)

    @pytest.mark.parametrize("profile", [(6, 4), (5, 2, 2)])
    def test_connected_series_sweeps_each_degree_once(self, profile, cold_memo, monkeypatch):
        # Below the long cycle the degrees may go through content moments.
        degrees = _count_sweeps(monkeypatch)
        first = cov_connected_series(profile, 12)
        assert len(set(degrees)) == len(degrees)
        assert set(range(max(profile), 13)) <= set(degrees)
        degrees.clear()
        assert cov_connected_series(profile, 12) == first
        assert degrees == []

    @pytest.mark.parametrize("profile", [(4, 3), (2, 2, 2)])
    def test_short_connected_series_sweeps_nothing(self, profile, cold_memo, monkeypatch):
        degrees = _count_sweeps(monkeypatch)
        first = cov_connected_series(profile, 12)
        assert degrees == []
        states = _moment_states()
        assert states > 0
        assert cov_connected_series(profile, 12) == first
        assert degrees == []
        assert _moment_states() == states

    @pytest.mark.parametrize("profile", [(2, 2), (4, 3), (2, 2, 2)])
    def test_ratio_after_rows_sweeps_at_most_degree_zero(self, profile, cold_memo, monkeypatch):
        # A row stores the totals of every sub-profile of its profile, which
        # is all that the connected series of the ratio needs.
        for d in range(1, 13):
            cov_d(profile, d)
        degrees = _count_sweeps(monkeypatch)
        asymptotic_ratio(profile, 12)
        assert set(degrees) <= {0}

    def test_profile_order_does_not_matter(self, cold_memo):
        assert cov_d((2, 3, 2), 9) == cov_d((3, 2, 2), 9) == cov_d((2, 2, 3), 9)

    def test_any_call_order_matches_a_cold_memo(self, monkeypatch):
        want = {}
        for call in MEMO_CALLS:
            _cold(monkeypatch)
            want[call] = _covering_call(*call)
        for seed in range(6):
            calls = list(MEMO_CALLS)
            random.Random(seed).shuffle(calls)
            _cold(monkeypatch)
            for call in calls:
                assert _covering_call(*call) == want[call], (seed, call)


class TestMomentRoute:
    def test_matches_sweep_and_murnaghan_nakayama(self, monkeypatch):
        # Every profile of 1-4 cycles from {2, 3, 4}: both routes store the
        # same totals for its cycles that fit in d and all their
        # sub-profiles, equal to the character sums.
        keys = [key[::-1] for s in (1, 2, 3, 4)
                for key in combinations_with_replacement((2, 3, 4), s)]
        for d in range(15):
            for key in keys:
                fit = tuple(m for m in key if m <= d)
                monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
                _moment_sums(_Moments(_moment_bounds(fit)), fit, d)
                moments = stratavol.coverings._burnside_totals
                monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
                _sweep(fit, d)
                assert moments == stratavol.coverings._burnside_totals, (key, d)
                assert moments[fit, d] == _burnside_by_murnaghan_nakayama(fit, d), (key, d)

    def test_empty_profile_counts_partitions(self, monkeypatch):
        for d in range(25):
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _moment_sums(_Moments((0, 0, 0)), (), d)
            assert stratavol.coverings._burnside_totals == {((), d): partition_count(d)}

    def test_one_table_grown_in_place(self, cold_memo):
        # Growing through 20 in steps gives the rows of one pass, and a
        # table whose bounds hold a profile's serves it.
        table = _Moments((1, 2, 2))
        for d in (3, 11, 11, 20):
            table.grow(d)
        whole = _Moments((1, 2, 2))
        whole.grow(20)
        assert table.rows == whole.rows
        stratavol.coverings._moment_tables[1, 2, 2] = table
        assert _moment_table((3, 2), 20) is table
        assert _moment_table((3, 2), 21) is not table

    def test_state_terms_count_the_passes(self):
        for bounds in [(0, 0, 0), (0, 0, 2), (0, 1, 2), (1, 2, 2), (2, 3, 5), (6, 6, 6)]:
            table = _Moments(bounds)
            terms = len(table.index)
            terms += sum(len(t) for plan in table.shears for _, t in plan)
            terms += sum(len(t) for _, _, plan in table.shifts for _, _, t in plan)
            assert _state_terms(bounds) == terms, bounds


class TestRoutes:
    def test_workload_profiles_take_the_moments(self, cold_memo, monkeypatch):
        # The benchmark's covering rows and ratios, the top row first, the
        # same rows as covers requests, and every covers request of its CLI
        # mix, each from cold.
        _forbid(monkeypatch, "_sweep")
        workloads = _bench_workloads()
        top = workloads.COVER_DMAX
        for profile in workloads.COVER_PROFILES:
            _cold(monkeypatch)
            for d in range(top, 0, -1):
                cov_d(profile, d)
            asymptotic_ratio(profile, top)
        covers = [argv for argv in workloads.cli_requests()
                  if argv[0] == "covers" and argv[1] != "1"]
        assert len(covers) == 12
        covers += [["covers", ",".join(map(str, profile)), "--dmax", str(top)]
                   for profile in workloads.COVER_PROFILES]
        for argv in covers:
            _cold(monkeypatch)
            assert main(argv) == 0, argv

    @pytest.mark.parametrize("profile", [(5,), (6, 4), (5, 2, 2), (12, 3), (7, 5, 2)])
    def test_long_cycles_take_the_sweep(self, profile, cold_memo, monkeypatch):
        _forbid(monkeypatch, "_moment_sums")
        for d in range(max(profile), 18):
            assert _moment_table(profile, d) is None
            cov_d(profile, d)

    def test_wide_short_profile_takes_the_sweep(self, cold_memo, monkeypatch):
        # A table for six 4-cycles carries 84 monomials at 1,176 terms a
        # state: through degree 18 it took 39 ms against 7 ms for sweeps
        # of every degree up to 18 (2-core Xeon, Python 3.11).
        wide = (4,) * 6
        assert _moment_table(wide, 18) is None
        _forbid(monkeypatch, "_moment_sums")
        for d in range(4, 19):
            cov_d(wide, d)
        assert stratavol.coverings._moment_tables == {}
        # Grown through 17, the table needs 18 more states for degree 18.
        table = _Moments(_moment_bounds(wide))
        table.grow(17)
        stratavol.coverings._moment_tables[_moment_bounds(wide)] = table
        assert _moment_table(wide, 18) is table


class TestBurnsideWork:
    def test_counts_partitions_of_every_degree(self):
        for dmax in range(25):
            want = sum(len(enum_int_partitions(d)) for d in range(dmax + 1))
            assert burnside_work(dmax) == want

    def test_cap_allows_degree_48(self):
        assert burnside_work(48) == 918_220 <= BURNSIDE_WORK_CAP
        assert burnside_work(70) == 30_053_954
        check_burnside_cap(48)
        for dmax in (49, 70, 10**9):
            with pytest.raises(ResourceCapError, match="Burnside work"):
                check_burnside_cap(dmax)

    def test_product_cap_counts_sub_profiles_of_cycles_that_fit(self):
        # 2,3,...,21 has 2^(k-1) sub-profiles of cycles no longer than k.
        wide = tuple(range(2, 22))
        assert burnside_work(14) * 2**13 <= BURNSIDE_PRODUCT_CAP < burnside_work(15) * 2**14
        check_burnside_cap(14, wide)
        with pytest.raises(ResourceCapError, match="16384 sub-profiles"):
            check_burnside_cap(15, wide)
        check_burnside_cap(48, (4, 4, 2, 2))
        check_burnside_cap(1, wide + (22, 23, 24, 25))


class TestRowCap:
    def test_cold_row_checked_before_sweep(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a partition sweep started")

        monkeypatch.setattr(stratavol.coverings, "iter_int_partitions", forbidden)
        _forbid(monkeypatch, "_moment_sums")
        _cold(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="exceeds cap 1000000 partitions"):
            cov_d((2,), 10**4)
        with pytest.raises(ResourceCapError, match="65536 sub-profiles"):
            cov_d(tuple(range(2, 22)), 17)
        assert time.perf_counter() - start < 1.0

    def test_row_cap_is_on_one_degree(self):
        # p(60) = 966,467 and p(61) = 1,121,505 partitions.
        _check_sweep_cap((2, 2), 60)
        with pytest.raises(ResourceCapError):
            _check_sweep_cap((2, 2), 61)
        # p(16) = 231 partitions times 2^15 sub-profiles is under 10^7;
        # p(17) = 297 times 2^16 is over.
        _check_sweep_cap(tuple(range(16, 1, -1)), 16)
        with pytest.raises(ResourceCapError, match="65536 sub-profiles"):
            _check_sweep_cap(tuple(range(17, 1, -1)), 17)

    def test_memo_hit_is_not_checked(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a memo hit was checked")

        monkeypatch.setattr(stratavol.coverings, "partition_counts", forbidden)
        monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {((2,), 10**4): 5})
        assert cov_d((2,), 10**4) == 5

    def test_rows_of_tests_and_benchmark_under_cap(self):
        workloads = _bench_workloads()
        rows = [(tuple(p), d) for _, p, d in workloads.cover_row_items()]
        series = [(tuple(p), d) for _, p, d in workloads.cover_ratio_items()]
        golden = json.loads((TESTS / "data" / "golden_covers.json").read_text())
        series += [(tuple(map(int, key.split(","))), golden["dmax"]) for key in golden["profiles"]]
        call = re.compile(r"cov_d\(\(([\d, ]*)\), (\d+)\)")
        rows += [(tuple(int(m) for m in profile.split(",") if m.strip()), int(d))
                 for path in sorted(TESTS.glob("test_*.py"))
                 for profile, d in call.findall(path.read_text())]
        assert len(rows) > len(workloads.cover_row_items())
        for profile, d in rows:
            _check_sweep_cap(tuple(sorted((m for m in profile if m <= d), reverse=True)), d)
        for profile, dmax in series:
            check_burnside_cap(dmax, profile)


class TestSeries:
    def test_prime_is_euler_times_raw(self):
        n = 20
        for profile in [(2,), (2, 2)]:
            raw = cov_series(profile, n)
            assert cov_prime_series(profile, n) == euler_series(n) * raw

    def test_prime_empty_profile_is_one(self):
        assert cov_prime_series((), 10) == QSeries.one(10)

    def test_prime_nonnegative(self):
        for profile in [(2, 2), (3, 3), (2, 2, 2, 2)]:
            series = cov_prime_series(profile, 10)
            assert all(c >= 0 for c in series.coeffs)

    def test_prime_transposition_zero(self):
        assert cov_prime_series((2,), 16).is_zero()

    def test_connected_no_constant_term(self):
        for profile in [(2,), (2, 2), (3, 2, 3)]:
            assert cov_connected_series(profile, 6).coefficient(0) == 0

    def test_connected_transposition_zero(self):
        assert cov_connected_series((2,), 12).is_zero()

    def test_connected_via_power_sum_average(self):
        # The no-unramified series for two transposition points equals a
        # quarter of the q-average of the squared second power sum; this
        # ties the character route to the partition-evaluation route.
        n = 12
        assert cov_prime_series((2, 2), n) == Fraction(1, 4) * q_average((2, 2), n)

    def test_connected_empty_profile_rejected(self):
        with pytest.raises(DomainError):
            cov_connected_series((), 5)

    def test_negative_order_rejected(self):
        for series in (cov_series, cov_prime_series, cov_connected_series):
            with pytest.raises(DomainError, match="order must be nonnegative"):
                series((2, 2), -1)


GOLDEN_COVERS = json.loads((TESTS / "data" / "golden_covers.json").read_text())
# Every sorted profile of one to four cycles of lengths 2..5.
SMALL_PROFILES = [profile for s in range(1, 5)
                  for profile in combinations_with_replacement(range(2, 6), s)]


class TestConnectedSeries:
    def test_matches_set_partition_oracle_on_small_profiles(self):
        for profile in SMALL_PROFILES:
            want = connected_by_set_partitions(profile, 12)
            assert cov_connected_series(profile, 12) == want, profile

    @pytest.mark.parametrize("key", sorted(GOLDEN_COVERS["profiles"]))
    def test_matches_set_partition_oracle_on_golden_profiles(self, key):
        profile = tuple(int(m) for m in key.split(","))
        dmax = GOLDEN_COVERS["dmax"]
        assert cov_connected_series(profile, dmax) == connected_by_set_partitions(profile, dmax)

    def test_no_set_partition_is_listed(self, cold_memo, monkeypatch):
        profiles = [(2, 2, 2, 2), (5, 3, 2), (3, 3, 3), (4, 3, 2, 2)]
        want = [connected_by_set_partitions(profile, 14) for profile in profiles]

        def forbidden(*args):
            raise AssertionError("a set partition or a Mobius coefficient was used")

        for name in ("set_partitions_of", "mobius_coeff"):
            monkeypatch.setattr(stratavol.partitions, name, forbidden)
            monkeypatch.setattr(stratavol.coverings, name, forbidden, raising=False)
        assert [cov_connected_series(profile, 14) for profile in profiles] == want

    def test_eight_points_to_order_108_under_a_second(self, cold_memo, monkeypatch):
        # Inclusion-exclusion would multiply rational series for each of
        # the Bell(8) = 4,140 set partitions of the points.  Order 108 is
        # past the Burnside caps, which are lifted here.
        monkeypatch.setattr(stratavol.coverings, "BURNSIDE_WORK_CAP", 10**15)
        monkeypatch.setattr(stratavol.coverings, "BURNSIDE_PRODUCT_CAP", 10**18)
        start = time.perf_counter()
        series = cov_connected_series((2,) * 8, 108)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"
        assert series.coeffs[:21] == cov_connected_series((2,) * 8, 20).coeffs
        assert series.coefficient(108) > 0

    def test_cycle_longer_than_order_gives_zero_without_work(self, monkeypatch):
        _forbid(monkeypatch, "_burnside_sums")
        for profile, order in [((2,) * 12, 1), (tuple(range(2, 12)), 1), ((7, 2), 6)]:
            assert cov_connected_series(profile, order).is_zero()


class TestBruteForce:
    def test_two_transpositions_degree_two(self):
        assert brute_force_hom_count((2, 2), 2, False) == 2
        assert brute_force_hom_count((2, 2), 2, True) == 2

    def test_empty_profile_degree_one(self):
        assert brute_force_hom_count((), 1, False) == 1

    def test_empty_profile_counts_partitions(self):
        # commuting pairs / d! = number of conjugacy classes = p(d)
        for d in range(1, 5):
            assert brute_force_hom_count((), d, False) == partition_count(d)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_hom_count((2,), 6, False)

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            brute_force_hom_count((2,), 0, False)

    def test_work_is_pairs_times_all_classes_but_the_last(self):
        for profile in [(), (2,), (3, 2), (2, 2, 2), (4, 3, 2), (5, 5)]:
            want = 0
            for d in range(1, 6):
                if any(m > d for m in profile):
                    continue
                work = factorial(d) ** 2
                for m in profile[:-1]:
                    work *= len(stratavol.coverings._class_elements(d, m))
                want += work
            assert brute_force_work(profile, 5) == want, profile
        assert brute_force_work((5, 5, 5), 5) == 120**2 * 24**2
        assert brute_force_work((5, 5), 5) == 120**2 * 24

    def test_work_cap_checked_before_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a permutation class was enumerated")

        monkeypatch.setattr(stratavol.coverings, "_class_elements", forbidden)
        assert brute_force_work((5, 5, 5), 5) > BRUTE_FORCE_WORK_CAP
        with pytest.raises(ResourceCapError, match="work"):
            brute_force_hom_count((5, 5, 5), 5, False)

    def test_tested_requests_under_cap(self):
        # Criterion 5 (profiles of at most three points with entries in
        # {2, 3, 4}, degrees up to 4) and the degree-5 count used below.
        for s in (1, 2, 3):
            for profile in product((2, 3, 4), repeat=s):
                check_brute_force_caps(profile, 4)
        check_brute_force_caps((2, 2), 5)

    def test_burnside_agreement_small(self):
        for profile in [(2,), (3,), (2, 2), (3, 2), (3, 3), (2, 2, 2)]:
            for d in range(1, 4):
                assert cov_d(profile, d) == brute_force_hom_count(profile, d, False)

    def test_connected_agreement_small(self):
        for profile in [(2, 2), (3, 3), (2, 2, 2)]:
            series = cov_connected_series(profile, 3)
            for d in range(1, 4):
                assert series.coefficient(d) == brute_force_hom_count(profile, d, True)


class TestAsymptoticRatio:
    def test_degree_one_zero(self):
        assert asymptotic_ratio((2, 2), 1) == 0

    def test_partial_sum_formula(self):
        # The normalized partial sum at D = 5, with the degree-5 connected
        # count taken from the independent brute-force enumeration.
        series = cov_connected_series((2, 2), 4)
        c5 = brute_force_hom_count((2, 2), 5, True)
        partial = sum(series.coeffs[1:], Fraction(0)) + c5
        assert asymptotic_ratio((2, 2), 5) == 5 * partial / Fraction(5**5)

    def test_validation(self):
        with pytest.raises(DomainError):
            asymptotic_ratio((2, 2), 0)

    def test_burnside_cap_checked_before_any_sweep(self, monkeypatch):
        def forbidden(d):
            raise AssertionError("a partition sweep started")

        monkeypatch.setattr(stratavol.coverings, "iter_int_partitions", forbidden)
        _forbid(monkeypatch, "_moment_sums")
        for call in (lambda: asymptotic_ratio((2, 2), 70),
                     lambda: cov_connected_series((4, 3), 49),
                     lambda: cov_connected_series(tuple(range(2, 14)), 20)):
            with pytest.raises(ResourceCapError, match="Burnside work"):
                call()


def test_record_csv_row():
    rec = CoverCountRecord(CoverProfile((2, 2)), 2, "connected", Fraction(2))
    assert rec.csv_row() == "2,2;2;connected;2"
