import threading
from fractions import Fraction
from math import factorial

import pytest

from stratavol.characters import (
    CONTENT_POLY_MAX_M,
    beta_numbers,
    central_char_f,
    character,
    character_cache,
    conjugacy_class_size,
    content_form,
    dimension,
    hook_value,
)
from stratavol.errors import DomainError
from stratavol.partitions import IntPartition, enum_int_partitions

from .oracles import conjugate, m_cycle_class_size

# Full character table of S(3); classes keyed by cycle type.
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}

# One nontrivial row of the S(4) table.
S4_ROW_22 = {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0}


class TestDimension:
    def test_trivial(self):
        for d in range(1, 9):
            assert dimension(IntPartition([d])) == 1

    def test_sign(self):
        assert dimension(IntPartition([1, 1, 1])) == 1

    def test_hook_example(self):
        assert dimension(IntPartition([3, 2])) == 5

    def test_matches_identity_character(self):
        for d in range(1, 7):
            for lam in enum_int_partitions(d):
                assert dimension(lam) == character(lam, (1,) * d)

    def test_sum_of_squares(self):
        for d in range(1, 9):
            total = sum(dimension(lam) ** 2 for lam in enum_int_partitions(d))
            assert total == factorial(d)

    def test_transpose_symmetry(self):
        for d in range(1, 9):
            for lam in enum_int_partitions(d):
                assert dimension(lam) == dimension(conjugate(lam))


class TestCharacter:
    def test_s3_table(self):
        for lam, row in S3_TABLE.items():
            for rho, want in row.items():
                assert character(lam, rho) == want

    def test_s4_row(self):
        for rho, want in S4_ROW_22.items():
            assert character((2, 2), rho) == want

    def test_trivial_rep(self):
        for d in range(1, 6):
            for rho in enum_int_partitions(d):
                assert character((d,), rho) == 1

    def test_sign_on_transposition(self):
        assert character((1, 1), (2,)) == -1

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            character((2, 1), (2, 2))

    def test_column_orthogonality(self):
        for d in range(1, 6):
            types = enum_int_partitions(d)
            lams = enum_int_partitions(d)
            for rho in types:
                for sigma in types:
                    acc = sum(
                        character(lam, rho) * character(lam, sigma) for lam in lams
                    ) * conjugacy_class_size(rho)
                    assert acc == (factorial(d) if rho == sigma else 0)

    def test_conjugate_sign_rule(self):
        for d in range(1, 7):
            for lam in enum_int_partitions(d):
                for rho in enum_int_partitions(d):
                    sign = (-1) ** (d - rho.length)
                    assert character(conjugate(lam), rho) == sign * character(lam, rho)

    def test_concurrent_calls(self):
        results = []

        def worker():
            results.append(character((4, 3, 2, 1), (3, 3, 2, 1, 1)))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestClassSize:
    def test_examples(self):
        assert m_cycle_class_size(2, 2) == 1
        assert m_cycle_class_size(4, 2) == 6
        assert m_cycle_class_size(3, 5) == 0

    def test_against_general_formula(self):
        for d in range(2, 8):
            for m in range(2, d + 1):
                rho = IntPartition([m] + [1] * (d - m))
                assert m_cycle_class_size(d, m) == conjugacy_class_size(rho)

    def test_total_class_sizes(self):
        for d in range(1, 8):
            assert sum(conjugacy_class_size(r) for r in enum_int_partitions(d)) \
                == factorial(d)


class TestCentralChar:
    def test_examples(self):
        assert central_char_f(2, (2,)) == 1
        assert central_char_f(2, (1, 1)) == -1
        assert central_char_f(3, (1, 1)) == 0

    def test_against_direct_formula(self):
        for d in range(2, 7):
            for m in range(2, d + 1):
                rho = IntPartition([m] + [1] * (d - m))
                for lam in enum_int_partitions(d):
                    want = Fraction(
                        m_cycle_class_size(d, m) * character(lam, rho),
                        dimension(lam),
                    )
                    assert central_char_f(m, lam) == want

    def test_conjugation_parity(self):
        # Values on a partition and its transpose differ by (-1)^(m+1).
        for d in range(2, 7):
            for m in range(2, d + 1):
                for lam in enum_int_partitions(d):
                    assert central_char_f(m, conjugate(lam)) \
                        == (-1) ** (m + 1) * central_char_f(m, lam)


class TestCache:
    def test_character_values_are_memoized(self):
        cache = character_cache()
        value = character((3, 2, 1), (3, 2, 1))
        assert cache.get(((3, 2, 1), (3, 2))) == value
        size = len(cache)
        assert character((3, 2, 1), (3, 2, 1)) == value
        assert len(cache) == size


def _box_power_sums(lam, powers):
    """p_k(lam) for k in powers, summed box by box."""
    contents = [j - i for i, part in enumerate(lam) for j in range(part)]
    return {k: sum(c**k for c in contents) for k in powers}


def _central_by_mn(m, lam):
    """f_m(lam) = (class size) * character / dimension, the character by
    Murnaghan-Nakayama; 0 when m > |lam|."""
    d = sum(lam)
    if m > d:
        return Fraction(0)
    rho = IntPartition([m] + [1] * (d - m))
    return Fraction(m_cycle_class_size(d, m) * character(lam, rho), dimension(lam))


class TestContentPoly:
    def test_closed_forms(self):
        # Closed forms exist for cycle lengths 2..CONTENT_POLY_MAX_M only.
        for m in (1, CONTENT_POLY_MAX_M + 1):
            with pytest.raises(DomainError):
                content_form(m, 8)

    def test_linear_forms(self):
        # The coefficients of each closed form give f_m from p_1, p_2, p_3.
        for d in range(13):
            for lam in enum_int_partitions(d):
                p = _box_power_sums(lam, (1, 2, 3))
                for m in range(2, CONTENT_POLY_MAX_M + 1):
                    a = content_form(m, d)
                    value = a[0] + a[1] * p[1] + a[2] * p[2] + a[3] * p[3]
                    assert value == _central_by_mn(m, lam), (m, lam)


class TestHookValue:
    def test_beta_numbers(self):
        assert beta_numbers((3, 1)) == [4, 1]
        assert beta_numbers((2, 2, 2)) == [4, 3, 2]
        assert beta_numbers(()) == []

    def test_against_murnaghan_nakayama(self):
        # Every lam with |lam| <= 14 and cycles up to 16, so lam with no
        # rim hook of length m (f_m = 0) and |lam| < m are included.
        for d in range(15):
            for lam in enum_int_partitions(d):
                beta = beta_numbers(lam)
                for m in range(2, 17):
                    assert hook_value(m, beta, set(beta)) == _central_by_mn(m, lam), (m, lam)

    def test_central_char_f_on_both_sides_of_the_cutoff(self):
        # One evaluation, the residues, below and past the moment route's
        # closed forms.
        for m in range(2, CONTENT_POLY_MAX_M + 2):
            for d in range(m, 11):
                for lam in enum_int_partitions(d):
                    assert central_char_f(m, lam) == _central_by_mn(m, lam), (m, lam)
