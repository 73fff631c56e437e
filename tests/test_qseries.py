import random
from fractions import Fraction

import pytest

from stratavol.errors import DomainError
from stratavol.qseries import QSeries, euler_series

from .oracles import partition_count, product_by_double_loop, series_inverse


class TestEulerSeries:
    def test_order_5(self):
        assert euler_series(5) == QSeries([1, -1, -1, 0, 0, 1])

    def test_constant_term(self):
        assert euler_series(12).coefficient(0) == 1

    def test_inverts_partition_counts(self):
        n = 20
        counts = QSeries([partition_count(d) for d in range(n + 1)])
        assert euler_series(n) * counts == QSeries.one(n)


class TestQSeriesArithmetic:
    def rand_series(self, rng, order):
        return QSeries(
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

    @pytest.mark.parametrize("shape", ["dense", "sparse-left", "sparse-right", "zero", "mixed-orders"])
    @pytest.mark.parametrize("kind", [int, Fraction])
    def test_product_matches_double_loop(self, shape, kind):
        rng = random.Random(f"{shape}-{kind.__name__}")

        def coefficient(density):
            if rng.random() >= density:
                return 0
            n = rng.randint(-9, 9)
            return n if kind is int else Fraction(n, rng.randint(1, 4))

        def series(order, density):
            return QSeries(coefficient(density) for _ in range(order + 1))

        density = {"dense": (1, 1), "sparse-left": (0.2, 1), "sparse-right": (1, 0.2),
                   "zero": (0, 1), "mixed-orders": (0.6, 0.6)}[shape]
        for _ in range(20):
            order = rng.randint(0, 25)
            other = rng.randint(0, 25) if shape == "mixed-orders" else order
            a, b = series(order, density[0]), series(other, density[1])
            assert a * b == product_by_double_loop(a, b)
            assert b * a == product_by_double_loop(a, b)

    def test_inverse_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            order = rng.randint(0, 8)
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
            coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
            s = QSeries(coeffs)
            assert s * series_inverse(s) == QSeries.one(order)

    def test_inverse_needs_unit(self):
        with pytest.raises(DomainError):
            series_inverse(QSeries([0, 1]))

    def test_mixed_orders_truncate(self):
        a = QSeries([1, 1, 1, 1])
        b = QSeries([1, 2])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_negative_order_rejected(self):
        # QSeries.one(-5) used to return an order-0 series.
        for make in (QSeries.zero, QSeries.one, euler_series):
            for order in (-1, -5):
                with pytest.raises(DomainError, match="order must be nonnegative"):
                    make(order)
        assert QSeries.zero(0) == QSeries([0]) and QSeries.one(0) == QSeries([1])

    def test_coefficient_out_of_range(self):
        with pytest.raises(DomainError):
            QSeries([1, 2]).coefficient(5)

    def test_scalar_ops(self):
        a = QSeries([1, 2, 3])
        assert 2 * a == QSeries([2, 4, 6])
        assert a + 1 == QSeries([2, 2, 3])
