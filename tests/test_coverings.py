import importlib.util
import json
import random
import re
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratavol.characters import (
    character,
    character_cache,
    conjugacy_class_size,
    dimension,
)
import stratavol.characters
import stratavol.coverings
import stratavol.partitions
from stratavol.coverings import (
    BRUTE_FORCE_WORK_CAP,
    BURNSIDE_WORK_CAP,
    _burnside_sums,
    _degree,
    _fill,
    _grow_columns,
    _held,
    _moment_bounds,
    _moment_sums,
    _monomial_terms,
    _monomials,
    _plan,
    _route,
    _sub_profiles,
    _sweep,
    _targets,
    CoverProfile,
    asymptotic_ratio,
    brute_force_hom_count,
    brute_force_work,
    check_brute_force_caps,
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

from .oracles import brute_force_per_pair, connected_by_set_partitions, partition_count, sigma

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
        # cov_d((2, 2), 4) = 80 used to answer (2.5, 2).
        with pytest.raises(DomainError, match="expected an integer, got 2.5"):
            CoverProfile((2.5, 2))


# Requests that no held row may answer, by the exception a cold call raises.
_INVALID_REQUESTS = [
    (((4, 1), 20), DomainError),
    (((4, 3), -1), DomainError),
    ((("x", 3), 20), ValueError),
    ((([4], 3), 20), TypeError),
    (((4.5, 3), 20), DomainError),
    (((4, 3), 20.5), DomainError),
]


class TestWarmRow:
    FORMS = [(4, 3, 2), CoverProfile((4, 3, 2)), (2, 4, 3), [4, 3, 2], [2, 3, 4]]

    def test_every_profile_form_reads_the_cold_value(self, cold_memo, monkeypatch):
        want = []
        for form in self.FORMS:
            _cold(monkeypatch)
            want.append(cov_d(form, 20))
        assert want[0] != 0 and len(set(want)) == 1
        cov_series((4, 3, 2), 28)
        for form in self.FORMS:
            got = cov_d(form, 20)
            assert type(got) is Fraction and got == want[0], form

    @pytest.mark.parametrize("request_, error", _INVALID_REQUESTS)
    def test_invalid_requests_raise_alike_warm_or_cold(self, request_, error, cold_memo):
        with pytest.raises(error):
            cov_d(*request_)
        cov_series((4, 3), 28)
        with pytest.raises(error):
            cov_d(*request_)

    def test_integral_degree_reads_alike_warm_or_cold(self, cold_memo):
        # A degree equal to an integer is that integer, cold or held; it
        # used to raise TypeError cold and read the row warm.
        assert cov_d((2, 2), 4.0) == 80
        assert cov_d((2, 2), 4) == cov_d((2, 2), 4.0) == cov_d((2.0, 2), 4) == 80

    def test_hit_runs_no_check_and_no_route(self, cold_memo, monkeypatch):
        # (4, 3) rows vanish by parity; its sub-profiles' are held too.
        want = {key: [cov_d(key, d) for d in range(29)] for key in ((3,), ())}
        _cold(monkeypatch)
        cov_series((4, 3), 28)
        for name in ("_profile", "_fill", "_route"):
            _forbid(monkeypatch, name)
        for d in range(4, 29):
            assert cov_d((4, 3), d) == cov_d(CoverProfile((4, 3)), d) == 0, d
            for key, rows in want.items():
                assert cov_d(key, d) == cov_d(CoverProfile(key), d) == rows[d] != 0, (key, d)

    def test_rows_below_the_longest_cycle_read_zero(self, cold_memo):
        forms = ((4, 3), CoverProfile((4, 3)), (3, 4), [4, 3])
        for warm in (False, True):
            if warm:
                cov_series((4, 3), 28)
            for form in forms:
                got = [cov_d(form, d) for d in range(4)]
                assert got == [0] * 4 and {type(x) for x in got} == {Fraction}, (form, warm)
        assert cov_d((3,), 3) != 0

    def test_held_rows_are_returned_as_stored(self, cold_memo, monkeypatch):
        # A hit builds nothing: it returns the very Fraction the memo holds.
        items = _bench_workloads().cover_row_items()
        want = [cov_d(p, d) for _, p, d in items]
        stored = [stratavol.coverings._burnside_totals.get((tuple(p), d)) for _, p, d in items]
        _forbid(monkeypatch, "Fraction")
        for (_, p, d), row, held in zip(items, want, stored):
            got = cov_d(tuple(p), d)
            assert got == row and (held is None) == (max(p) > d), (p, d)
            assert held is None or got is held, (p, d)

    @pytest.mark.parametrize("profile, d", [((4, 3), 3), ((4, 3), 0), ((5,), 4), ((7, 2, 2), 6)])
    def test_row_below_the_longest_cycle_sums_nothing(self, profile, d, cold_memo, monkeypatch):
        # f_m vanishes at every partition of d < m: no route is priced and
        # no row is filled, before or after the profile's series is held.
        for warm in (False, True):
            if warm:
                cov_series(profile, max(profile))
            with monkeypatch.context() as patch:
                for name in ("_fill", "_route"):
                    _forbid(patch, name)
                got = cov_d(profile, d)
            assert type(got) is Fraction and got == 0, warm


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


def _terms(e):
    """Multiply-adds one state of the column of e makes: one for the sum,
    and e_i + 1 for each pass that changes an exponent e_i > 0 (one pass
    for p_1, two for p_2, three for p_3), the monomial itself and e_i
    earlier ones."""
    a, b, c = e
    return 1 + (a and a + 1) + (b and 2 * b + 2) + (c and 3 * c + 3)


def _cold(monkeypatch, columns=None):
    """Empty the Burnside memo, the moment columns (or start them from an
    empty ``columns``) and the state targets; the process-wide ones come
    back when the test ends."""
    monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
    monkeypatch.setattr(stratavol.coverings, "_columns", {} if columns is None else columns)
    monkeypatch.setattr(stratavol.coverings, "_target_table", [[], ([], [], [])])


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty Burnside memo and no moment columns or state targets for
    the test, the process-wide ones restored after it."""
    _cold(monkeypatch)


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(stratavol.coverings, name, forbidden)


def _moment_cells() -> int:
    return sum(map(len, stratavol.coverings._columns.values()))


def _grown(bounds, d):
    """The moment columns of ``bounds`` after growing them through degree
    d from the process's columns as they stand, in growth order."""
    _grow_columns(bounds, d)
    return {e: stratavol.coverings._columns[e] for e in _monomials(bounds)}


def _priced(monkeypatch, profile, d) -> bool:
    """The route ``_route`` takes for the cold row of ``profile`` at d,
    which raises ResourceCapError over the Burnside cap."""
    _cold(monkeypatch)
    return _route(tuple(sorted((m for m in profile if m <= d), reverse=True)), d)


def _state():
    """Copies of the moment columns and the Burnside memo."""
    coverings = stratavol.coverings
    return dict(coverings._columns), dict(coverings._burnside_totals)


def _count_routes(monkeypatch) -> list[tuple]:
    """The (key, degree) of every ``_route`` call from now on."""
    calls, route = [], stratavol.coverings._route

    def counted(key, d):
        calls.append((key, d))
        return route(key, d)

    monkeypatch.setattr(stratavol.coverings, "_route", counted)
    return calls


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
        # Every profile with at most three points and entries 2..6 whose
        # cycles fit d is a sub-profile of the cycles that fit d of the one
        # with three of each; one sweep of those must store them all, each
        # equal to its sum from an empty memo, and every other reads 0.
        keys = [key for s in (1, 2, 3)
                for key in combinations_with_replacement(range(2, 7), s)]
        for d in range(13):
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _burnside_sums([m for m in range(2, 7) for _ in range(3) if m <= d], d)
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
        cells = _moment_cells()
        assert cells > 0
        assert cov_connected_series(profile, 12) == first
        assert degrees == []
        assert _moment_cells() == cells

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
        # sub-profiles, equal to the character sums.  The moment columns
        # start cold for every profile and degree.
        keys = [key[::-1] for s in (1, 2, 3, 4)
                for key in combinations_with_replacement((2, 3, 4), s)]
        for d in range(15):
            for key in keys:
                fit = tuple(m for m in key if m <= d)
                _cold(monkeypatch)
                _grown(_moment_bounds(fit), d)
                _moment_sums(fit, d)
                moments = stratavol.coverings._burnside_totals
                monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
                _sweep(fit, d)
                assert moments == stratavol.coverings._burnside_totals, (key, d)
                assert moments[fit, d] == _burnside_by_murnaghan_nakayama(fit, d), (key, d)

    @pytest.mark.parametrize("profile", [(4, 3), (4, 4, 3, 3, 2, 2)])
    def test_matches_sweep_at_high_degrees(self, profile, cold_memo, monkeypatch):
        # Degrees 36..40, past the Murnaghan-Nakayama checks: columns grown
        # once through 40 against one sweep per degree, for the profile
        # and every sub-profile.
        _grown(_moment_bounds(profile), 40)
        for d in range(36, 41):
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _moment_sums(profile, d)
            moments = stratavol.coverings._burnside_totals
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _sweep(profile, d)
            assert moments == stratavol.coverings._burnside_totals, d

    def test_warm_rows_match_the_sweep_for_every_sub_profile(self, cold_memo, monkeypatch):
        # Each sub-profile's own row, read from columns grown once through
        # 30, stores the totals of one sweep of the widest key.
        key = (4, 4, 3, 3, 2, 2)
        _grown(_moment_bounds(key), 30)
        for d in (10, 20, 30):
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _sweep(key, d)
            swept = stratavol.coverings._burnside_totals
            for sub in _sub_profiles(key)[0]:
                monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
                _moment_sums(sub, d)
                totals = stratavol.coverings._burnside_totals
                assert (sub, d) in totals
                assert all(swept[row] == total for row, total in totals.items()), (sub, d)

    def test_sweep_reads_no_closed_form(self, cold_memo, monkeypatch):
        # Six 4-cycles at degree 18 take the sweep (TestRoutes), which
        # evaluates every cycle by its rim-hook residues: the two routes
        # share no formula, so each comparison of them checks the closed
        # forms of the moments.
        wide = (4,) * 6
        _grown(_moment_bounds(wide), 18)
        _moment_sums(wide, 18)
        moments = stratavol.coverings._burnside_totals
        monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
        _forbid(monkeypatch, "content_form")
        _sweep(wide, 18)
        assert moments == stratavol.coverings._burnside_totals

    def test_growth_sums_the_rows_it_adds(self, cold_memo, monkeypatch):
        # A row that grows the columns also sums its key's rows at every
        # degree the growth adds, so those rows sum nothing when asked.
        key = (4, 3)
        for d, want in ((20, range(4, 21)), (12, range(4, 21)), (24, range(4, 25))):
            cov_d(key, d)
            totals = stratavol.coverings._burnside_totals
            assert sorted(n for sub, n in totals if sub == key) == list(want), d
        _forbid(monkeypatch, "_moment_sums")
        _forbid(monkeypatch, "_route")
        rows = [cov_d(key, n) for n in range(4, 25)]
        monkeypatch.undo()
        for n, row in zip(range(4, 25), rows):
            monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {})
            _sweep(key, n)
            assert row == stratavol.coverings._burnside_totals[key, n], n

    def test_empty_profile_counts_partitions(self, monkeypatch):
        for d in range(25):
            _cold(monkeypatch)
            _grown((0, 0, 0), d)
            _moment_sums((), d)
            assert stratavol.coverings._burnside_totals == {((), d): partition_count(d)}

    def test_one_table_grown_in_place(self, cold_memo, monkeypatch):
        # Growing through 20 in steps gives the columns of one growth, and
        # columns that reach a degree serve every profile they hold.
        for d in (3, 11, 11, 20):
            _grown((1, 2, 2), d)
        stepped = dict(stratavol.coverings._columns)
        assert set(stepped) == set(_monomials((1, 2, 2)))
        assert {_degree(len(col)) for col in stepped.values()} == {20}
        _cold(monkeypatch)
        _grown((1, 2, 2), 20)
        assert stratavol.coverings._columns == stepped
        cells = _moment_cells()
        _fill((3, 2), 20)
        assert _moment_cells() == cells
        _fill((3, 2), 21)
        columns = stratavol.coverings._columns
        assert {_degree(len(columns[e])) for e in _monomials((0, 1, 2))} == {21}
        for e, col in stratavol.coverings._columns.items():
            assert col[:len(stepped[e])] == stepped[e], e

    def test_state_terms_count_the_passes(self):
        # One multiply-add per term of each pass that changes an exponent,
        # the monomial itself included, and one for the sum; every other
        # term reads a column earlier in the growth order, within the bounds.
        for bounds in [(0, 0, 0), (0, 0, 2), (0, 1, 2), (1, 2, 2), (2, 3, 5), (6, 6, 6)]:
            order = {e: i for i, e in enumerate(_monomials(bounds))}
            terms = 0
            for e in order:
                terms += 1 + sum(len(t) + 1 for t in _plan(e) if t)
                for f, _ in (term for t in _plan(e) for term in t):
                    assert order[f] < order[e], (bounds, e, f)
            assert sum(map(_terms, _monomials(bounds))) == terms, bounds

    def test_closed_form_counts_the_listed_monomials_and_terms(self):
        # Every bounds top3 <= top23 <= top with top3 <= 6, top23 <= 8 and
        # top <= 11: the closed form lists nothing and gives what listing
        # the monomials and summing their terms gives.
        for top3 in range(7):
            for top23 in range(top3, 9):
                for top in range(top23, 12):
                    bounds = (top3, top23, top)
                    monomials = _monomials(bounds)
                    want = len(monomials), sum(map(_terms, monomials))
                    assert _monomial_terms(bounds) == want, bounds

    @pytest.mark.parametrize("bounds", [(0, 0, 2), (1, 2, 2), (2, 4, 6), (6, 6, 6)])
    def test_multiplies_per_column_state_are_the_pass_terms(self, bounds, cold_memo, monkeypatch):
        # Each new column-state (n, b), b >= 1, multiplies once per term of
        # each pass other than the monomial itself, through degree 9 from
        # cold and then on to 13; the price adds one sum per pass and per
        # state to those, so a state costs the terms of all its columns.
        calls = []

        def counting(x, y):
            calls.append(None)
            return x * y

        monkeypatch.setattr(stratavol.coverings, "mul", counting)
        per_state = sum(len(t) for e in _monomials(bounds) for t in _plan(e))
        terms = _monomial_terms(bounds)[1]
        for low, d in ((0, 9), (9, 13)):
            states = d * (d + 1) // 2 - low * (low + 1) // 2
            calls.clear()
            _grown(bounds, d)
            assert len(calls) == states * per_state < states * terms, (low, d)

    @pytest.mark.parametrize("requests", [
        [((2, 2), 20), ((3, 2), 20), ((4, 3), 20)],
        [((2, 2), 12), ((4, 3), 7), ((3, 2), 20), ((2, 2), 16), ((4, 3), 20)],
    ])
    def test_nested_growths_give_one_cold_growth_in_price(self, requests, cold_memo, monkeypatch):
        # (2, 2) holds three of the nine columns of (4, 3), (3, 2) six.
        # Growing nested bounds in turn gives the columns of one cold growth
        # of the widest through 20.  Each growth reruns the passes of every
        # column it reads over the states the corner adds, and the terms of
        # all its columns over those states, summed over the growths, bound
        # the multiplications counted; each is within the growth's moments
        # price, the figure of its refusal at a cap of 0.
        calls = []

        def counting(x, y):
            calls.append(None)
            return x * y

        monkeypatch.setattr(stratavol.coverings, "mul", counting)
        predicted = 0
        for key, d in requests:
            held = _held(key)
            if held < d:
                terms = (d * (d + 1) // 2 - held * (held + 1) // 2) * _monomial_terms(
                    _moment_bounds(key))[1]
                predicted += terms
                with monkeypatch.context() as capped:
                    capped.setattr(stratavol.coverings, "BURNSIDE_WORK_CAP", 0)
                    with pytest.raises(ResourceCapError) as refused:
                        _route(key, d)
                assert int(re.search(r"the moments (\d+) ", str(refused.value))[1]) > terms
            _grown(_moment_bounds(key), d)
        assert 0 < len(calls) <= predicted
        assert stratavol.coverings._columns == _cold_columns((1, 2, 2), 20)

    def test_profiles_grown_in_any_order_give_one_table(self, monkeypatch):
        # The benchmark's profiles (2, 2), (3, 2) and (4, 3), their rows
        # through 28 grown from cold in each of the six orders: the same
        # columns, those of one cold growth of the widest bounds, and the
        # same totals, equal to the character sums.
        orders = []
        for profiles in permutations([(2, 2), (3, 2), (4, 3)]):
            _cold(monkeypatch)
            for profile in profiles:
                cov_series(profile, 28)
            orders.append((stratavol.coverings._columns, stratavol.coverings._burnside_totals))
        assert all(got == orders[0] for got in orders[1:])
        columns, totals = orders[0]
        assert columns == _cold_columns((1, 2, 2), 28)
        for (sub, d), total in totals.items():
            if d <= 12 or (sub, d) == ((4, 3), 28):
                want = _burnside_by_murnaghan_nakayama(sub, d) if max(sub, default=0) <= d else 0
                assert total == want, (sub, d)

    def test_each_cell_computed_once(self, monkeypatch):
        # Columns grown by degree and by monomial, in a mixed order: each is
        # only ever replaced by a longer one of whole rows that keeps its
        # cells, so every (monomial, state) cell is computed once.
        added = []

        class Recording(dict):
            def __setitem__(self, e, col):
                old = self.get(e, [])
                n = _degree(len(col))
                assert len(col) > len(old) and len(col) == (n + 1) * (n + 2) // 2, e
                assert col[:len(old)] == old, e
                added.append(len(col) - len(old))
                super().__setitem__(e, col)

        _cold(monkeypatch, Recording())
        for bounds, d in [((0, 0, 2), 12), ((0, 1, 2), 9), ((1, 2, 2), 15), ((0, 0, 2), 20),
                          ((1, 2, 2), 20), ((0, 1, 2), 25), ((2, 3, 3), 14), ((0, 0, 2), 5),
                          ((2, 3, 3), 26)]:
            _grown(bounds, d)
        for profile in _bench_workloads().COVER_PROFILES:
            for d in (28, 3, 30):
                cov_d(profile, d)
        assert sum(added) == _moment_cells()

    def test_threads_growing_at_once_lose_no_column(self, cold_memo):
        # Four threads (more than the cores) grow nested bounds to
        # different degrees at once, switching every microsecond: each
        # gets the columns of a cold growth, and no column is replaced by a
        # shorter one, so every column ends at the largest degree asked.
        requests = [((2, 4, 6), 30), ((1, 2, 2), 34), ((2, 4, 6), 18), ((0, 1, 2), 26)]
        start = threading.Barrier(len(requests))
        out = {}

        def grow(bounds, d):
            start.wait()
            out[bounds, d] = _grown(bounds, d)

        threads = [threading.Thread(target=grow, args=request) for request in requests]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        whole = _cold_columns((2, 4, 6), 34)
        for (bounds, d), columns in out.items():
            assert list(columns) == list(_monomials(bounds))
            for e, col in columns.items():
                assert _degree(len(col)) >= d and col == whole[e][:len(col)], (bounds, e)
        reach = {}
        for bounds, d in requests:
            for e in _monomials(bounds):
                reach[e] = max(reach.get(e, -1), d)
        columns = stratavol.coverings._columns
        assert {e: _degree(len(col)) for e, col in columns.items()} == reach
        assert all(col == whole[e][:len(col)] for e, col in columns.items())


# Bounds whose monomials all lie within (2, 3, 4).
INTERLEAVED_BOUNDS = [(0, 0, 0), (0, 0, 2), (0, 1, 2), (1, 2, 2), (0, 2, 3), (1, 1, 3),
                      (2, 3, 4)]
_COLD_COLUMNS = {}


def _cold_columns(bounds, d):
    """The columns of one cold growth of ``bounds`` through d, memoized;
    the process's columns are left as they are."""
    if (bounds, d) not in _COLD_COLUMNS:
        _COLD_COLUMNS[bounds, d] = _growth_sequence([(bounds, d)])
    return _COLD_COLUMNS[bounds, d]


def _growth_sequence(requests):
    """The columns after growing each (bounds, degree) of ``requests`` in
    turn from none, in a table of their own."""
    coverings = stratavol.coverings
    saved, coverings._columns = coverings._columns, {}
    try:
        for bounds, d in requests:
            _grown(bounds, d)
        return coverings._columns
    finally:
        coverings._columns = saved


class TestColumnInterleavings:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(INTERLEAVED_BOUNDS), st.integers(0, 16)),
                    min_size=1, max_size=8))
    def test_any_growth_order_gives_one_cold_build(self, requests):
        # Any interleaving of new monomials and new degrees: each column
        # reaches the largest degree a request that holds it asked for, no
        # further, and equals the column of one cold growth of (2, 3, 4)
        # through 16 that far.
        columns = _growth_sequence(requests)
        whole = _cold_columns((2, 3, 4), 16)
        reach = {}
        for bounds, d in requests:
            for e in _monomials(bounds):
                reach[e] = max(reach.get(e, -1), d)
        assert set(columns) == set(reach)
        for e, col in columns.items():
            assert _degree(len(col)) == reach[e], e
            assert col == whole[e][:len(col)], e


# Short profiles whose bounds overlap: (2, 2) and (3, 2) lie within (4, 3),
# and all three within (4, 4, 3, 3, 2, 2).
CORNER_PROFILES = [(2, 2), (4, 3), (3, 2), (4, 4, 3, 3, 2, 2)]


class _CountedReads(dict):
    """A column table that records the columns looked up with ``get``."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, e, *args):
        self.reads.append(e)
        return super().get(e, *args)


class TestCorner:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CORNER_PROFILES), st.integers(0, 12)),
                    min_size=1, max_size=8))
    def test_corner_reaches_least_and_answers_warm_rows(self, requests):
        # After every growth, the corner of each profile's bounds (the last
        # of its monomials) reaches the least degree of the bounds' columns,
        # so a row the table already serves is routed and filled from that
        # one column's length and grows nothing.
        coverings = stratavol.coverings
        saved = coverings._columns, coverings._burnside_totals
        grow = coverings._grow_columns

        def forbidden(*args):
            raise AssertionError("_grow_columns was called")

        columns = _CountedReads()
        coverings._columns = columns
        try:
            for profile, d in requests:
                grow(_moment_bounds(profile), d)
                for other in CORNER_PROFILES:
                    reach = [_degree(len(dict.get(columns, e, ())))
                             for e in _monomials(_moment_bounds(other))]
                    assert reach[-1] == min(reach), (other, requests)
                cells, columns.reads = _moment_cells(), []
                coverings._grow_columns, coverings._burnside_totals = forbidden, {}
                _fill(profile, d)
                coverings._grow_columns = grow
                assert set(columns.reads) == {_monomials(_moment_bounds(profile))[-1]}
                assert _moment_cells() == cells and (profile, d) in coverings._burnside_totals
        finally:
            coverings._columns, coverings._burnside_totals = saved
            coverings._grow_columns = grow


class TestRoutes:
    def test_workload_profiles_take_the_moments(self, cold_memo, monkeypatch):
        # The benchmark's covering rows and ratios, the top row first, the
        # same rows as covers requests, and every connected covers request
        # of its CLI mix, each from cold.  Its brute-force requests stop at
        # degree 4, where the sweep is priced cheaper and takes the top row:
        # (3,2) through 4 took 75 us by sweeps and 181 us by the moments
        # (in-process, cold, without the pricing).
        workloads = _bench_workloads()
        covers = [argv for argv in workloads.cli_requests()
                  if argv[0] == "covers" and argv[1] != "1"]
        assert len(covers) == 12
        for argv in covers:
            if "--brute-force" in argv:
                assert argv[argv.index("--dmax") + 1] == "4", argv
                assert _priced(monkeypatch, tuple(map(int, argv[1].split(","))), 4) is False
        monkeypatch.undo()
        _forbid(monkeypatch, "_sweep")
        top = workloads.COVER_DMAX
        for profile in workloads.COVER_PROFILES:
            _cold(monkeypatch)
            for d in range(top, 0, -1):
                cov_d(profile, d)
            asymptotic_ratio(profile, top)
        covers = [argv for argv in covers if "--brute-force" not in argv]
        covers += [["covers", ",".join(map(str, profile)), "--dmax", str(top)]
                   for profile in workloads.COVER_PROFILES]
        for argv in covers:
            _cold(monkeypatch)
            assert main(argv) == 0, argv

    @pytest.mark.parametrize("profile", [(5,), (6, 4), (5, 2, 2), (12, 3), (7, 5, 2)])
    def test_long_cycles_take_the_sweep(self, profile, cold_memo, monkeypatch):
        _forbid(monkeypatch, "_moment_sums")
        for d in range(max(profile), 18):
            assert _route(profile, d) is False
            cov_d(profile, d)

    def test_wide_short_profile_takes_the_sweep(self, cold_memo, monkeypatch):
        # Six 4-cycles carry 84 monomial columns at 1,176 multiply-adds a
        # state: grown cold through degree 18 they took 38 ms against 12 ms
        # for sweeps of every degree up to 18 (2-core Xeon, Python 3.11;
        # the one table per profile they replace took 55 ms there).
        wide = (4,) * 6
        assert _route(wide, 18) is False
        _forbid(monkeypatch, "_moment_sums")
        for d in range(4, 19):
            cov_d(wide, d)
        assert stratavol.coverings._columns == {}
        # Grown through 17, the columns need 18 more states for degree 18.
        monkeypatch.undo()
        _cold(monkeypatch)
        _grown(_moment_bounds(wide), 17)
        assert _route(wide, 18) is True
        _fill(wide, 18)
        columns = stratavol.coverings._columns
        assert {_degree(len(columns[e])) for e in _monomials(_moment_bounds(wide))} == {18}


class TestOneRoutePerSeries:
    @pytest.mark.parametrize("key, d, route", [
        ((4, 3), 20, True), ((2,), 30, True), ((5, 2), 20, False), ((4,) * 6, 18, False)])
    def test_route_only_prices(self, key, d, route, cold_memo):
        # Cold and then served, by either route: the route is chosen and
        # priced with no column grown, no pass summed and no row stored.
        before = _state()
        assert _route(key, d) is route
        assert _state() == before
        _fill(key, d)
        served = _state()
        assert served != before
        assert _route(key, d) is route and _route(key, d - 1) is route
        assert _state() == served

    @pytest.mark.parametrize("series, profile, order", [
        (cov_series, (5, 2), 20), (cov_series, (4, 3), 28), (cov_connected_series, (3, 3), 9)])
    def test_series_is_routed_once(self, series, profile, order, cold_memo, monkeypatch):
        # One price at the top row, one route for every row and sub-profile
        # below it, whichever rows a lone row summed before.
        calls = _count_routes(monkeypatch)
        got = series(profile, order)
        assert calls == [(profile, order)]
        want = [cov_d(profile, d) for d in range(order + 1)]
        if series is cov_connected_series:
            want = list(connected_by_set_partitions(profile, order).coeffs)
        assert list(got.coeffs) == want
        _cold(monkeypatch)
        cov_d(profile, order // 2)
        calls.clear()
        assert series(profile, order) == got
        assert calls == [(profile, order)]

    def test_lone_rows_leave_their_series_one_row(self, cold_memo, monkeypatch):
        # The benchmark's rows, each alone from the top degree down, then
        # its ratios: below the longest cycle a series sums the rows of the
        # cycles that fit, and a lone row sums nothing, so of those only rows
        # 0 and 1 of the empty profile, which no lone row at or past its
        # longest cycle asked for, are missing.
        profiles = [(2, 2), (3, 2), (4, 3)]
        for d in range(28, 0, -1):
            for profile in profiles:
                cov_d(profile, d)
        summed, moment_sums = [], stratavol.coverings._moment_sums

        def counted(key, d):
            summed.append((key, d))
            moment_sums(key, d)

        monkeypatch.setattr(stratavol.coverings, "_moment_sums", counted)
        _forbid(monkeypatch, "_grow_columns")
        _forbid(monkeypatch, "_sweep")
        got = [asymptotic_ratio(profile, 28) for profile in profiles]
        assert summed == [((), 0), ((), 1)]
        monkeypatch.undo()
        _cold(monkeypatch)
        assert got == [asymptotic_ratio(profile, 28) for profile in profiles]

    def test_targets_of_a_state_computed_once(self, cold_memo, monkeypatch):
        # Growing (0, 0, 1) through 20 computes the targets of rows 1-20;
        # narrower and wider bounds grown cold below 20 compute none, and
        # growing on through 30 computes those of rows 21-30 only.
        calls = []

        def counted(lo, d):
            calls.append((lo, d))
            return _targets(lo, d)

        monkeypatch.setattr(stratavol.coverings, "_targets", counted)
        _grown((0, 0, 1), 20)
        _grown((0, 1, 2), 12)
        _grown((1, 2, 2), 20)
        _grown((0, 0, 1), 30)
        assert calls == [(0, 20), (20, 30)]
        assert stratavol.coverings._target_table == list(_targets(0, 30))
        whole = _cold_columns((1, 2, 2), 30)
        assert all(col == whole[e][:len(col)] for e, col in stratavol.coverings._columns.items())


def _partition_tallies(d):
    """p(n) and the parts of all partitions of n for n <= d, from adding
    parts one size at a time: a part j added to a partition of n - j makes
    one of n, one part longer."""
    counts, parts = [1] + [0] * d, [0] * (d + 1)
    for j in range(1, d + 1):
        for n in range(j, d + 1):
            counts[n] += counts[n - j]
            parts[n] += parts[n - j] + counts[n - j]
    return counts, parts


def _sweep_price(key, d):
    """The sweep's price of the series of ``key`` through d: per partition,
    its parts twice for the beta numbers and their set and once per
    distinct cycle length, and one product per sub-profile, with the hook
    loops of length m at n bounded by those at n - m plus m times the parts
    and m(m + 1)/2 times the partitions of n - m; and per row 0..d, its
    setup (1 + its longest cycle, and 3 per sub-profile)."""
    counts, parts = _partition_tallies(d)
    lengths, subs = set(key), len(_sub_profiles(key)[0])
    price = (2 + len(lengths)) * sum(parts) + subs * sum(counts) + (d + 1) * (
        max(key, default=0) + 1 + 3 * subs)
    for m in lengths:
        loops = [0] * (d + 1)
        for n in range(m, d + 1):
            loops[n] = loops[n - m] + m * parts[n - m] + m * (m + 1) // 2 * counts[n - m]
        price += sum(loops)
    return price


def _moment_price(key, d):
    """The moments' price of the cold series of ``key`` through d, from
    the listed monomials: their column-states, six values per state
    (n, b), b >= 1, for the targets, and per such state the terms of every
    column and one value per distinct translation weight."""
    monomials = _monomials(_moment_bounds(key))
    weights = {w for e in monomials for terms in _plan(e) for _, w in terms
               if not isinstance(w, int)}
    return (len(monomials) * (d + 1) * (d + 2) // 2 + d * (d + 1) // 2
            * (6 + len(weights) + sum(map(_terms, monomials))))


class TestBurnsideWork:
    def test_counts_partitions_of_every_degree(self, monkeypatch):
        # A long cycle takes the sweep, admitted while its price over the
        # partitions of every degree up to the row's is at most the cap.
        for dmax in range(5, 25):
            want = _sweep_price((5,), dmax)
            monkeypatch.setattr(stratavol.coverings, "BURNSIDE_WORK_CAP", want)
            assert _route((5,), dmax) is False
            monkeypatch.setattr(stratavol.coverings, "BURNSIDE_WORK_CAP", want - 1)
            with pytest.raises(ResourceCapError, match=f"the sweep {want} "):
                _route((5,), dmax)

    def test_cap_allows_degree_38(self):
        # The series through 38 is priced at 9,725,054 steps; through 39,
        # 12,119,382.
        assert _sweep_price((5,), 38) <= BURNSIDE_WORK_CAP < _sweep_price((5,), 39)
        assert _route((5,), 38) is False
        for dmax in (39, 48, 70, 10**9):
            with pytest.raises(ResourceCapError, match=f"Burnside work up to degree {dmax} "):
                _route((5,), dmax)

    def test_price_counts_sub_profiles_of_cycles_that_fit(self, monkeypatch):
        # 2,3,...,21 has 2^(k-1) sub-profiles of cycles no longer than k:
        # 508 partitions through 14 times 2^13, and 684 through 15 times
        # 2^14, about either side of 10^7 steps with the rest of the sweep.
        wide = tuple(range(2, 22))
        assert _priced(monkeypatch, wide, 14) is False
        with pytest.raises(ResourceCapError, match=r"\(16384 sub-profiles\)"):
            _priced(monkeypatch, wide, 15)
        _priced(monkeypatch, (4, 4, 2, 2), 48)
        _priced(monkeypatch, wide + (22, 23, 24, 25), 1)

    @pytest.mark.parametrize("profile, degrees", [
        ((5,), (5, 12, 20, 26)), ((5, 2), (2, 9, 18, 24)), ((7, 5, 2), (7, 15, 22)),
        ((4,) * 6, (4, 11, 18)), ((6, 5, 4, 3, 2), (6, 13, 20))])
    def test_sweep_price_bounds_the_counted_steps(self, profile, degrees, cold_memo,
                                                  monkeypatch):
        # The steps of the sweeps of a series through d, every row with the
        # whole key, counted where they happen: each beta number, listed
        # and put in a set, each element a hook_value scan and each hook
        # loop visits, and each sub-profile product; and per row, as it is
        # set up, f and a value, a total and a store per sub-profile.  The
        # price is at least that count and within 10% of it (7% measured).
        steps, subs = [], ()

        def sub_profiles(key):
            nonlocal subs
            subs = _sub_profiles(key)[0]
            steps.append(max(key, default=0) + 1 + 3 * len(subs))
            return _sub_profiles(key)

        def partitions(n):
            for lam in iter_int_partitions(n):
                steps.append(len(subs))
                yield lam

        def beta_numbers(lam):
            steps.append(2 * len(lam))
            return stratavol.characters.beta_numbers(lam)

        def hook_value(m, beta, beta_set):
            hooks = sum(b >= m and b - m not in beta_set for b in beta)
            steps.append(len(beta) * (1 + hooks))
            return stratavol.characters.hook_value(m, beta, beta_set)

        monkeypatch.setattr(stratavol.coverings, "iter_int_partitions", partitions)
        monkeypatch.setattr(stratavol.coverings, "beta_numbers", beta_numbers)
        monkeypatch.setattr(stratavol.coverings, "hook_value", hook_value)
        monkeypatch.setattr(stratavol.coverings, "_sub_profiles", sub_profiles)
        monkeypatch.setattr(stratavol.coverings, "CONTENT_POLY_MAX_M", 1)  # no moments
        key = tuple(sorted(profile, reverse=True))
        for d in degrees:
            steps.clear()
            for n in range(d + 1):
                _sweep(key, n)
            counted = sum(steps)
            monkeypatch.setattr(stratavol.coverings, "BURNSIDE_WORK_CAP", counted - 1)
            with pytest.raises(ResourceCapError):
                _route(key, d)
            monkeypatch.setattr(stratavol.coverings, "BURNSIDE_WORK_CAP", counted * 11 // 10)
            assert _route(key, d) is False, (profile, d)


class TestRowCap:
    def test_cold_row_checked_before_sweep(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a partition sweep started")

        monkeypatch.setattr(stratavol.coverings, "iter_int_partitions", forbidden)
        _forbid(monkeypatch, "_moment_sums")
        _forbid(monkeypatch, "_grow_columns")
        _cold(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="up to degree 10000 exceeds cap "):
            cov_d((2,), 10**4)
        with pytest.raises(ResourceCapError, match=r"\(65536 sub-profiles\)"):
            cov_d(tuple(range(2, 18)), 17)
        assert cov_d(tuple(range(2, 22)), 17) == 0  # a 21-cycle at 17: no work
        assert time.perf_counter() - start < 1.0

    def test_refusals_and_messages_as_counted_per_row(self, monkeypatch):
        # Against each route's price counted from the partitions and the
        # monomials themselves (``_sweep_price``, ``_moment_price``): the
        # cheaper route is taken, the moments on a tie, when it is at most
        # the cap; otherwise the row is refused with one figure per route,
        # each over the cap: the moments' whole price, the sweep's when
        # fully counted.
        message = re.compile(
            rf"Burnside work up to degree (\d+) exceeds cap {BURNSIDE_WORK_CAP} steps: "
            r"the sweep (\d+|inf) \((\d+) sub-profiles\), the moments (\d+|inf) \(")
        keys = [(), (2,), (2, 2), (4, 4, 3, 3, 2, 2), (2,) * 30, (4,) * 9, (5, 5, 2),
                tuple(range(9, 1, -1)), tuple(range(16, 1, -1))]
        seen = set()
        for d in (2, 10, 16, 17, 20, 30, 38, 39, 48, 60, 90, 300):
            for key in keys:
                fit = tuple(m for m in key if m <= d)
                sweep = _sweep_price(fit, d)
                moments = inf if fit and fit[0] > 4 else _moment_price(fit, d)
                want = (True if moments <= BURNSIDE_WORK_CAP and moments <= sweep
                        else False if sweep <= BURNSIDE_WORK_CAP else None)
                seen.add(want)
                try:
                    got = _priced(monkeypatch, fit, d)
                except ResourceCapError as exc:
                    assert want is None, (key, d)
                    found = message.match(str(exc))
                    assert found, str(exc)
                    assert found[1] == str(d) and int(found[3]) == len(_sub_profiles(fit)[0])
                    for figure, price in ((found[2], sweep), (found[4], moments)):
                        assert figure == "inf" or BURNSIDE_WORK_CAP < int(figure) <= price
                    assert found[2] in ("inf", str(sweep)), (key, d)
                    assert found[4] == str(moments), (key, d)
                    seen.add("counted" if moments < inf else None)
                else:
                    assert got is want, (key, d)
        assert seen == {True, False, None, "counted"}

    def test_refused_rows_grow_no_column(self, cold_memo, monkeypatch):
        # Six 4-cycles at degree 400: 84 monomial columns of 80,601 states.
        _forbid(monkeypatch, "_grow_columns")
        for profile, d in [((2,), 10**4), ((4,) * 6, 400), ((5, 2, 2), 49)]:
            with pytest.raises(ResourceCapError, match=f"Burnside work up to degree {d} "):
                cov_d(profile, d)
        assert stratavol.coverings._columns == {}
        assert stratavol.coverings._burnside_totals == {}

    def test_row_cap_is_on_the_series_through_it(self, monkeypatch):
        # The sweep of degree 39 alone visits 31,185 partitions, but the
        # series through 39, 177,970 partitions, is priced at 12,297,472
        # steps: a lone row is priced as the series its route serves.
        assert _priced(monkeypatch, (5, 5), 38) is False
        with pytest.raises(ResourceCapError, match=r"the sweep 12297472 \(3 sub-profiles\)"):
            _priced(monkeypatch, (5, 5), 39)
        # p(16) = 231 times 2^15 sub-profiles is under 10^7; the 915
        # partitions through 16 times 2^15 are over.
        with pytest.raises(ResourceCapError, match=r"\(32768 sub-profiles\)"):
            _priced(monkeypatch, tuple(range(16, 1, -1)), 16)
        # Short cycles past the sweep's cap go by the moments.
        assert _priced(monkeypatch, (2, 2), 61) is True

    def test_memo_hit_is_not_checked(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a memo hit was checked")

        monkeypatch.setattr(stratavol.coverings, "partition_sums", forbidden)
        monkeypatch.setattr(stratavol.coverings, "_route", forbidden)
        held = Fraction(5)
        monkeypatch.setattr(stratavol.coverings, "_burnside_totals", {((2,), 10**4): held})
        assert cov_d((2,), 10**4) is held

    def test_rows_of_tests_and_benchmark_under_cap(self, monkeypatch):
        workloads = _bench_workloads()
        rows = [(tuple(p), d) for _, p, d in workloads.cover_row_items()]
        rows += [(tuple(p), d) for _, p, d in workloads.cover_ratio_items()]
        golden = json.loads((TESTS / "data" / "golden_covers.json").read_text())
        rows += [(tuple(map(int, key.split(","))), golden["dmax"]) for key in golden["profiles"]]
        call = re.compile(r"cov_d\(\(([\d, ]*)\), (\d+)\)")
        tested = [(tuple(int(m) for m in profile.split(",") if m.strip()), int(d))
                  for path in sorted(TESTS.glob("test_*.py"))
                  for profile, d in call.findall(path.read_text())]
        assert tested
        for profile, d in rows + tested:
            _priced(monkeypatch, profile, d)

    def test_many_fours_take_the_sweep(self, monkeypatch, capsys):
        # 300 fours at degree 4 bound 4,590,551 monomials; a sweep of the
        # five partitions of 4 makes 1,505 products.  155 fours bound
        # 644,956 monomials, 9,674,400 column-states through 4, under the
        # cap but over the sweep's price, so pricing lists no monomial and
        # plans no pass.  The CLI's series sweeps every row with all its
        # fours.
        want = [_burnside_by_murnaghan_nakayama((4,) * k, 4) for k in (155, 300)]
        cov_series((), 4)
        _forbid(monkeypatch, "_monomials")
        _forbid(monkeypatch, "_plan")
        start = time.perf_counter()
        assert [cov_d((4,) * k, 4) for k in (155, 300)] == want
        assert main(["covers", ",".join(["4"] * 1000), "--dmax", "4"]) == 0
        assert time.perf_counter() - start < 1.0
        assert _monomial_terms(_moment_bounds((4,) * 300))[0] == 4_590_551
        assert capsys.readouterr().out.count("\n") == 5


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

    def test_two_simple_branch_points_are_dijkgraafs_quasimodular_form(self):
        # Dijkgraaf (1995): the series of genus-2 covers with two simple
        # branch points is F2 = (10 E2^3 - 6 E2 E4 - 4 E6) / 103680, a
        # quasimodular form; the connected series here is exactly 2 F2.
        order = 39

        def eisenstein(k, c):
            return QSeries([1] + [c * sigma(k - 1, n) for n in range(1, order + 1)])

        e2, e4, e6 = eisenstein(2, -24), eisenstein(4, 240), eisenstein(6, -504)
        want = Fraction(2, 103680) * (10 * e2 * e2 * e2 - 6 * e2 * e4 - 4 * e6)
        got = cov_connected_series((2, 2), order)
        assert got == want
        for n in (2, order):
            bumped = QSeries(c + 1 if i == n else c for i, c in enumerate(want.coeffs))
            assert got != bumped

    def test_eight_points_to_order_108_under_a_second(self, cold_memo):
        # Inclusion-exclusion would multiply rational series for each of
        # the Bell(8) = 4,140 set partitions of the points.  Order 108 is
        # past the sweep's price; the moment columns answer it.
        start = time.perf_counter()
        series = cov_connected_series((2,) * 8, 108)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"
        assert series.coeffs[:21] == cov_connected_series((2,) * 8, 20).coeffs
        assert series.coefficient(108) > 0

    @pytest.mark.parametrize("profile, order", [
        ((2,) * 8, 48), ((2,) * 12, 1), ((4, 4, 3, 3, 2, 2), 40), ((4, 3), 48), ((2, 2), 48)])
    def test_connected_requests_of_ci_admitted(self, profile, order):
        assert cov_connected_series(profile, order).order == order

    def test_many_equal_cycles_refused_before_any_sum(self, monkeypatch):
        # A thousand 2s to order 2 pass the Burnside cap, but their
        # 501,501 first-block pairs at 6 multiply-adds each are over the
        # connected cap: refused at once, with no total stored.
        profile = (2,) * 1000
        totals = dict(stratavol.coverings._burnside_totals)
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="connected series work 3009006 "):
            cov_connected_series(profile, 2)
        assert time.perf_counter() - start < 1.0
        assert stratavol.coverings._burnside_totals == totals
        _priced(monkeypatch, profile, 2)

    def test_short_series_past_the_sweep_caps(self, cold_memo, capsys):
        # Order 100 is past the sweep's price from degree 38 on;
        # the moment columns of (2, 2) answer it from cold.
        start = time.perf_counter()
        assert main(["covers", "2,2", "--connected", "--dmax", "100"]) == 0
        assert time.perf_counter() - start < 1.0
        rows = [line.split(";") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(d) for _, d, _, _ in rows] == list(range(1, 101))
        want = connected_by_set_partitions((2, 2), 30)
        assert [Fraction(count) for *_, count in rows[:30]] == list(want.coeffs[1:])

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

    def test_work_is_pairs_then_keys_times_all_classes_but_the_last(self):
        # Per degree, the (d!)^2 pairs, then per tally key (an even
        # commutator, with its orbit partition when connected) the tuples
        # of every class but the last; at least the keys the tally makes.
        bell = [1, 1, 2, 5, 15, 52]
        for profile in [(), (2,), (3, 2), (2, 2, 2), (4, 3, 2), (5, 5)]:
            for connected in (False, True):
                want = 0
                for d in range(1, 6):
                    if any(m > d for m in profile):
                        continue
                    work = (factorial(d) + 1) // 2 * (bell[d] if connected else 1)
                    for m in profile[:-1]:
                        work *= len(stratavol.coverings._class_elements(d, m))
                    want += factorial(d) ** 2 + work
                assert brute_force_work(profile, 5, connected) == want, profile
        assert brute_force_work((5, 5, 5), 5) == 120**2 + 60 * 24**2
        assert brute_force_work((5, 5, 5), 5) <= BRUTE_FORCE_WORK_CAP
        perms = list(permutations(range(4)))
        keys = {stratavol.coverings._compose(stratavol.coverings._compose(a, b),
                                             stratavol.coverings._compose(
                                                 stratavol.coverings._inverse(a),
                                                 stratavol.coverings._inverse(b)))
                for a in perms for b in perms}
        assert len(keys) <= (factorial(4) + 1) // 2

    def test_work_cap_checked_before_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a permutation class was enumerated")

        monkeypatch.setattr(stratavol.coverings, "_class_elements", forbidden)
        assert brute_force_work((5, 5, 5, 5), 5) > BRUTE_FORCE_WORK_CAP
        with pytest.raises(ResourceCapError, match="work"):
            brute_force_hom_count((5, 5, 5, 5), 5, False)

    def test_work_stops_at_the_first_degree_past_the_cap(self, monkeypatch):
        # (6!)^2 pairs pass the cap at degree 6, before its Bell(6) orbit
        # partitions are listed; no factorial is taken of a degree whose
        # square is past the cap; a cycle longer than every degree takes none.
        def forbidden(*args):
            raise AssertionError("orbit partitions were listed")

        start = time.perf_counter()
        assert brute_force_work((2,), 5, True) <= BRUTE_FORCE_WORK_CAP
        monkeypatch.setattr(stratavol.coverings, "set_partitions_of", forbidden)
        assert brute_force_work((6,), 10**9, True) == factorial(6) ** 2
        assert brute_force_work((10**8,), 10**8) == 10**16
        assert brute_force_work((9,), 8, True) == 0
        assert time.perf_counter() - start < 1.0

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

    def test_tallies_match_per_pair_enumeration(self):
        # Every profile of at most three points with entries in {2, 3, 4},
        # degrees up to 4.
        for s in range(4):
            for profile in product((2, 3, 4), repeat=s):
                for d in range(1, 5):
                    got = (brute_force_hom_count(profile, d, False),
                           brute_force_hom_count(profile, d, True))
                    assert got == brute_force_per_pair(profile, d), (profile, d)


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
        # Six 4-cycles to order 180: 84 monomial columns of 16,471 states
        # each, at 1,176 multiply-adds a state, are over the cap.
        _forbid(monkeypatch, "iter_int_partitions")
        _forbid(monkeypatch, "_grow_columns")
        _forbid(monkeypatch, "_moment_sums")
        for call in (lambda: asymptotic_ratio((5,), 70),
                     lambda: cov_connected_series((5, 3), 49),
                     lambda: cov_connected_series((4,) * 6, 180)):
            start = time.perf_counter()
            with pytest.raises(ResourceCapError, match="Burnside work"):
                call()
            assert time.perf_counter() - start < 1.0

