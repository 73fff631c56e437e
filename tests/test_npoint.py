from fractions import Fraction
from math import isqrt

import pytest

import stratavol.npoint
from stratavol.errors import DomainError, ResourceCapError
from stratavol.npoint import (
    NPOINT_WORK_CAP,
    EvaluatedPoint,
    direct_one_point,
    theta_prime_zero,
    theta_series,
    verify_theorem1_n1,
)
from stratavol.partitions import check_partition_work, enum_int_partitions
from stratavol.qseries import QSeries, euler_series


def _row_sum(s, lam):
    """sum_i s^(2(lam_i - i) + 1) over the rows of lam plus the geometric
    tail over the rows beyond its length, for one partition."""
    acc = Fraction(0)
    for i, part in enumerate(lam, start=1):
        acc += s ** (2 * (part - i) + 1)
    ell = len(lam)
    return acc + s ** (-2 * ell - 1) / (1 - s ** (-2))


class TestEvaluatedPoint:
    @pytest.mark.parametrize("bad", [0, 1, -1])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(DomainError):
            EvaluatedPoint(Fraction(bad))

    def test_accepts_generic(self):
        assert EvaluatedPoint(Fraction(5, 2)).s == Fraction(5, 2)


class TestThetaSeries:
    def test_vanishes_at_one(self):
        assert theta_series(Fraction(1), 0, 10).is_zero()

    def test_derivative_at_zero_leading(self):
        # q^(1/8) is left out, so the leading term sits at q^0
        assert theta_prime_zero(10).coefficient(0) == 1

    def test_leading_at_two(self):
        series = theta_series(Fraction(2), 0, 10)
        assert series.coefficient(0) == Fraction(2) - Fraction(1, 2)

    def test_exponents_are_odd_squares(self):
        # q^t times the factor q^(1/8) left out is q^((8t + 1)/8), and
        # 8t + 1 is an odd square exactly when t is a triangular number
        series = theta_series(Fraction(2), 0, 20)
        support = [t for t, c in enumerate(series.coeffs) if c]
        assert support == [0, 1, 3, 6, 10, 15]
        for t in support:
            assert isqrt(8 * t + 1) ** 2 == 8 * t + 1

    def test_matches_closed_sum(self):
        order = 21
        for s in (Fraction(2), Fraction(-5, 3)):
            for k in range(4):
                want = [Fraction(0)] * (order + 1)
                for n in range(-8, 8):
                    t = n * (n + 1) // 2
                    sign = 1 if n % 2 == 0 else -1
                    if t <= order:
                        want[t] += sign * (n + Fraction(1, 2)) ** k * s ** (2 * n + 1)
                assert theta_series(s, k, order).coeffs == tuple(want)

    def test_inversion_sign_even_derivative(self):
        for order in (0, 2):
            at_s = theta_series(Fraction(3), order, 15)
            at_inv = theta_series(Fraction(1, 3), order, 15)
            assert at_inv.coeffs == (-at_s).coeffs

    def test_inversion_sign_odd_derivative(self):
        at_s = theta_series(Fraction(3), 1, 15)
        at_inv = theta_series(Fraction(1, 3), 1, 15)
        assert at_inv.coeffs == at_s.coeffs

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            theta_series(Fraction(0), 0, 5)


class TestDirectOnePoint:
    def test_constant_coefficient(self):
        for s in (Fraction(2), Fraction(3), Fraction(5, 2)):
            series = direct_one_point(EvaluatedPoint(s), 4)
            want = 1 / (s - 1 / s)
            assert series.coefficient(0) == want

    def test_q1_coefficient(self):
        s = Fraction(2)
        series = direct_one_point(EvaluatedPoint(s), 4)
        # row sums: for the one-box partition and the empty one
        want = _row_sum(s, (1,)) - _row_sum(s, ())
        assert series.coefficient(1) == want

    @pytest.mark.parametrize("s", ["5/2", "-3/2", "7/3", "2"])
    def test_matches_per_partition_sum(self, s):
        s, order = Fraction(s), 14
        raw = [sum((_row_sum(s, lam) for lam in enum_int_partitions(d)), Fraction(0))
               for d in range(order + 1)]
        want = euler_series(order) * QSeries(raw)
        assert direct_one_point(EvaluatedPoint(s), order) == want

    def test_needs_s_above_one(self):
        with pytest.raises(DomainError):
            direct_one_point(EvaluatedPoint(Fraction(1, 2)), 4)


class TestTheorem1:
    def test_holds_at_modest_order(self):
        for s in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-2)):
            assert verify_theorem1_n1(s, 15)

    def test_lowest_order_consistency(self):
        for s in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-3)):
            point = EvaluatedPoint(s)
            prod = theta_series(s, 0, 8) * direct_one_point(point, 8)
            assert prod.coefficient(0) == 1

    def test_degenerate_point_rejected(self):
        with pytest.raises(DomainError):
            verify_theorem1_n1(Fraction(1), 10)

    def test_work_cap_checked_before_any_series(self, monkeypatch):
        # Order 44 visits 451,501 partitions, order 45 540,635.
        def forbidden(*args, **kwargs):
            raise AssertionError("a series was computed")

        check_partition_work(44, NPOINT_WORK_CAP, "one-point")
        for name in ("theta_series", "theta_prime_zero", "direct_one_point"):
            monkeypatch.setattr(stratavol.npoint, name, forbidden)
        for order in (45, 80, 10**9):
            with pytest.raises(ResourceCapError, match="one-point work"):
                verify_theorem1_n1(Fraction(3, 2), order)
        with pytest.raises(DomainError):
            verify_theorem1_n1(Fraction(3, 2), -2)

    def test_fails_when_top_coefficient_is_off(self, monkeypatch):
        exact = direct_one_point

        def off_at_top(point, order):
            bump = QSeries([0] * order + [1])
            return exact(point, order) + bump

        monkeypatch.setattr(stratavol.npoint, "direct_one_point", off_at_top)
        for order in (0, 1, 15):
            assert not verify_theorem1_n1(Fraction(2), order)
