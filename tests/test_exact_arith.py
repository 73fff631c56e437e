import threading
from fractions import Fraction
from math import prod

import pytest

from stratavol.errors import DomainError
from stratavol.exact_arith import (
    PiScalar,
    bernoulli,
    frak_z,
    frak_z_over_pi,
    pi_approx,
    zeta_even_over_pi,
    zeta_neg,
)
from stratavol.qseries import QSeries

from .oracles import bernoulli_akiyama_tanigawa, series_inverse


class TestBernoulli:
    def test_base(self):
        assert bernoulli(0) == 1

    def test_b2(self):
        assert bernoulli(2) == Fraction(1, 6)

    def test_b12(self):
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_b1_convention(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_odd_vanish(self):
        for n in range(3, 41, 2):
            assert bernoulli(n) == 0

    def test_against_akiyama_tanigawa(self):
        for n in range(31):
            assert bernoulli(n) == bernoulli_akiyama_tanigawa(n)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli(-1)

    def test_denominators_by_von_staudt_clausen(self):
        # The denominator of B_n, n even, is the product of the primes p
        # with p - 1 dividing n; the signs alternate.
        primes = [p for p in range(2, 602) if all(p % q for q in range(2, int(p**0.5) + 1))]
        for n in range(2, 601, 2):
            b = bernoulli(n)
            assert b.denominator == prod(p for p in primes if n % (p - 1) == 0), n
            assert (b > 0) == (n % 4 == 2), n

    def test_against_akiyama_tanigawa_far_out(self):
        for n in (98, 150):
            assert bernoulli(n) == bernoulli_akiyama_tanigawa(n)

    def test_large_index_memoized(self):
        from stratavol.exact_arith import _bernoulli_memo

        assert bernoulli(80) == bernoulli_akiyama_tanigawa(80)
        assert 80 in _bernoulli_memo

    def test_concurrent_reads(self):
        results = []

        def worker():
            results.append(bernoulli(40))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert results[0] == bernoulli_akiyama_tanigawa(40)


class TestZeta:
    def test_zeta2(self):
        assert zeta_even_over_pi(2) == Fraction(1, 6)

    def test_zeta4(self):
        assert zeta_even_over_pi(4) == Fraction(1, 90)

    def test_zeta6(self):
        assert zeta_even_over_pi(6) == Fraction(1, 945)

    @pytest.mark.parametrize("bad", [0, 1, 3, -2])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            zeta_even_over_pi(bad)

    def test_neg_values(self):
        assert zeta_neg(1) == Fraction(-1, 12)
        assert zeta_neg(2) == 0
        assert zeta_neg(3) == Fraction(1, 120)

    def test_neg_domain(self):
        with pytest.raises(DomainError):
            zeta_neg(0)


class TestFrakZ:
    def test_at_two(self):
        assert frak_z(2) == PiScalar(Fraction(1, 6), 2)

    def test_odd_zero(self):
        assert frak_z(3).is_zero()
        assert frak_z(17).is_zero()

    def test_at_four(self):
        assert frak_z(4) == PiScalar(Fraction(7, 360), 4)

    def test_at_zero(self):
        assert frak_z(0) == PiScalar(Fraction(1), 0)

    def test_negative_zero(self):
        assert frak_z(-2).is_zero()
        assert frak_z(-1).is_zero()

    def test_repeated_calls_agree(self):
        for k in range(-2, 30):
            first = frak_z(k)
            assert frak_z(k) == first == frak_z.__wrapped__(k)

    def test_positive_even(self):
        for k in range(2, 42, 2):
            value = frak_z(k)
            assert value.pi_pow == k
            assert value.coeff > 0

    def test_sine_series_identity(self):
        # pi x / sin(pi x) = sum frak_z(2k) x^(2k): invert the Taylor
        # series of sin(y)/y (computed from factorials alone) and compare.
        K = 20
        order = 2 * K
        sin_over_y = []
        for j in range(order + 1):
            if j % 2 == 0:
                k = j // 2
                num = Fraction((-1) ** k)
                den = 1
                for i in range(2, j + 2):
                    den *= i
                sin_over_y.append(num / den)
            else:
                sin_over_y.append(Fraction(0))
        inverse = series_inverse(QSeries(sin_over_y))
        for k in range(K + 1):
            assert inverse.coefficient(2 * k) == frak_z_over_pi(2 * k)
            if k > 0:
                assert inverse.coefficient(2 * k - 1) == 0


class TestPiScalar:
    def test_canonical_zero(self):
        z = PiScalar(Fraction(0), 6)
        assert z.pi_pow == 0 and z.is_zero()

    def test_add_same_power(self):
        a = PiScalar(Fraction(1, 6), 2)
        assert a + a == PiScalar(Fraction(1, 3), 2)

    def test_add_zero_neutral(self):
        a = PiScalar(Fraction(1, 6), 2)
        assert a + PiScalar.zero() == a
        assert PiScalar.zero() + a == a

    def test_add_mismatch_raises(self):
        with pytest.raises(ValueError):
            PiScalar(Fraction(1), 2) + PiScalar(Fraction(1), 4)

    def test_mul_adds_exponents(self):
        a = PiScalar(Fraction(1, 6), 2)
        b = PiScalar(Fraction(16, 45), 4)
        assert a * b == PiScalar(Fraction(8, 135), 6)

    def test_scalar_ops(self):
        a = PiScalar(Fraction(1, 6), 2)
        assert 3 * a == PiScalar(Fraction(1, 2), 2)
        assert a / 2 == PiScalar(Fraction(1, 12), 2)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            PiScalar(Fraction(1), -1)

    def test_approx(self):
        value = PiScalar(Fraction(1, 6), 2).approx()
        assert abs(value - Fraction(16449, 10000)) < Fraction(1, 1000)

    def test_str(self):
        assert str(PiScalar(Fraction(8, 135), 6)) == "8/135*pi^6"
        assert str(PiScalar.zero()) == "0"

    def test_every_digit_printed(self):
        # 7^6000 has 5,071 digits, over the 4,300 of str(int) by default.
        value = PiScalar(Fraction(-(7**6000), 3), 2)
        text, data = str(value), value.as_json_dict()
        assert text.startswith("-") and text.endswith(f"{pow(7, 6000, 10**6)}/3*pi^2")
        assert len(text) == 1 + 5071 + len("/3*pi^2")
        assert data["num"] == text[:1 + 5071] and data["den"] == "3"


def test_pi_approx_digits():
    v = pi_approx()
    assert Fraction(314159, 100000) < v < Fraction(314160, 100000)
