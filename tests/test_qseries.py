import random
from fractions import Fraction

import pytest

from stratavol.errors import DomainError
from stratavol.qseries import QSeries, euler_series

from .oracles import partition_count, series_inverse


class TestEulerSeries:
    def test_order_5(self):
        assert euler_series(5) == QSeries.from_coeffs([1, -1, -1, 0, 0, 1])

    def test_constant_term(self):
        assert euler_series(12).coefficient(0) == 1

    def test_inverts_partition_counts(self):
        n = 20
        counts = QSeries.from_coeffs([partition_count(d) for d in range(n + 1)])
        assert euler_series(n) * counts == QSeries.one(n)


class TestQSeriesArithmetic:
    def rand_series(self, rng, order):
        return QSeries.from_coeffs(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
        )

    def test_ring_identities_randomized(self):
        rng = random.Random(99)
        for _ in range(50):
            order = rng.randint(0, 8)
            a = self.rand_series(rng, order)
            b = self.rand_series(rng, order)
            c = self.rand_series(rng, order)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a - a == QSeries.zero(order)

    def test_inverse_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            order = rng.randint(0, 8)
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
            coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
            s = QSeries.from_coeffs(coeffs)
            assert s * series_inverse(s) == QSeries.one(order)

    def test_inverse_needs_unit(self):
        with pytest.raises(DomainError):
            series_inverse(QSeries.from_coeffs([0, 1]))

    def test_mixed_orders_truncate(self):
        a = QSeries.from_coeffs([1, 1, 1, 1])
        b = QSeries.from_coeffs([1, 2])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_coefficient_out_of_range(self):
        with pytest.raises(DomainError):
            QSeries.from_coeffs([1, 2]).coefficient(5)

    def test_scalar_ops(self):
        a = QSeries.from_coeffs([1, 2, 3])
        assert 2 * a == QSeries.from_coeffs([2, 4, 6])
        assert a + 1 == QSeries.from_coeffs([2, 2, 3])
