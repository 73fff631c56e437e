import random
from fractions import Fraction

import pytest

from stratavol.errors import DomainError
from stratavol.exact_arith import zeta_neg
from stratavol.partitions import IntPartition
from stratavol.qseries import QSeries
from stratavol.shifted_symmetric import f_top_expansion, p_eval, q_average

from .oracles import (
    conjugate,
    expansion_from_dict,
    f_top_expansion_by_division,
    q_average_by_p_eval,
    sigma,
    weight,
)


def p_eval_long_sum(k: int, lam, extra_rows: int = 30) -> Fraction:
    """Oracle: evaluate the bracket sum well past the length of lam, where
    the terms are identically zero, plus the regularization constant."""
    half = Fraction(1, 2)
    lam = tuple(lam)
    acc = Fraction(0)
    for i in range(1, len(lam) + extra_rows + 1):
        part = lam[i - 1] if i <= len(lam) else 0
        acc += (part - i + half) ** k - (-i + half) ** k
    return acc + (1 - Fraction(1, 2**k)) * zeta_neg(k)


def random_partition(rng, max_size):
    size = rng.randint(0, max_size)
    parts = []
    while size > 0:
        p = rng.randint(1, size)
        parts.append(p)
        size -= p
    return IntPartition(parts)


class TestPEval:
    def test_empty_k1(self):
        assert p_eval(1, ()) == Fraction(-1, 24)

    def test_single_box_k1(self):
        assert p_eval(1, (1,)) == Fraction(23, 24)

    def test_k1_counts_size(self):
        rng = random.Random(42)
        for _ in range(50):
            lam = random_partition(rng, 20)
            assert p_eval(1, lam) == lam.size - Fraction(1, 24)

    def test_matches_long_sum_oracle(self):
        rng = random.Random(43)
        for _ in range(50):
            lam = random_partition(rng, 12)
            k = rng.randint(1, 6)
            assert p_eval(k, lam) == p_eval_long_sum(k, lam)

    def test_conjugation_parity(self):
        rng = random.Random(44)
        for _ in range(60):
            lam = random_partition(rng, 12)
            k = rng.randint(1, 6)
            assert p_eval(k, conjugate(lam)) == (-1) ** (k + 1) * p_eval(k, lam)

    def test_k_validation(self):
        with pytest.raises(DomainError):
            p_eval(0, (1,))


class TestQAverage:
    def test_average_of_one(self):
        assert q_average((), 10) == QSeries.one(10)

    def test_eisenstein_expansion(self):
        n = 20
        got = q_average((1,), n)
        want = QSeries(
            [Fraction(-1, 24)] + [sigma(1, m) for m in range(1, n + 1)]
        )
        assert got == want

    def test_odd_weight_vanishes(self):
        # weight = size + length odd
        for mu in [(2,), (4,), (2, 1, 1), (3, 2)]:
            assert (sum(mu) + len(mu)) % 2 == 1
            assert q_average(mu, 8).is_zero()

    def test_against_p_eval_products(self):
        for mu in [(1,), (2,), (3, 1), (2, 2), (3, 3)]:
            assert q_average(mu, 16) == q_average_by_p_eval(mu, 16), mu

    def test_constant_term_is_empty_evaluation(self):
        for mu in [(1,), (1, 1), (2, 1), (3, 2)]:
            series = q_average(mu, 4)
            expect = Fraction(1)
            for k in mu:
                expect *= p_eval(k, ())
            assert series.coefficient(0) == expect


class TestWeight:
    def test_examples(self):
        assert weight((3, 1)) == 6
        assert weight(()) == 0
        assert weight((2,)) == 3


class TestFTopExpansion:
    def test_f2(self):
        assert f_top_expansion(2).as_dict() == {IntPartition([2]): Fraction(1, 2)}

    def test_f4(self):
        assert f_top_expansion(4).as_dict() == {
            IntPartition([4]): Fraction(1, 4),
            IntPartition([2, 1]): Fraction(-1),
        }

    def test_f3(self):
        assert f_top_expansion(3).as_dict() == {
            IntPartition([3]): Fraction(1, 3),
            IntPartition([1, 1]): Fraction(-1, 2),
        }

    def test_terms_have_weight_k_plus_1(self):
        for k in range(2, 10):
            for lam, coeff in f_top_expansion(k).terms:
                assert weight(lam) == k + 1
                assert coeff != 0

    def test_k_validation(self):
        with pytest.raises(DomainError):
            f_top_expansion(1)

    def test_str_format(self):
        assert str(f_top_expansion(4)) == "1/4 p[4] - 1 p[2,1]"

    def test_matches_division_oracle(self):
        # Same terms in the same order, reduced Fractions, same text.
        for k in range(2, 31):
            got, want = f_top_expansion(k), f_top_expansion_by_division(k)
            assert got.terms == want.terms, k
            assert all(type(c) is Fraction and type(lam) is IntPartition
                       for lam, c in got.terms), k
            assert str(got) == str(want), k

    def test_memoized(self):
        assert f_top_expansion(9) is f_top_expansion(9)

    def test_pexpansion_drops_zeros(self):
        exp = expansion_from_dict({IntPartition([2]): Fraction(0)})
        assert exp.terms == ()
