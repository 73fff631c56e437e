"""Truncated formal power series in q with exact rational coefficients."""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .errors import DomainError, Record, as_int


class QSeries(Record):
    """A power series truncated at order N: coefficients of q^0 .. q^N.

    All arithmetic truncates consistently; combining series of different
    orders truncates to the smaller one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if not coeffs:
            raise DomainError("QSeries needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "QSeries":
        return QSeries(tuple(coeffs))

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries((Fraction(0),) * (order + 1))

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries((Fraction(1),) + (Fraction(0),) * order)

    def coefficient(self, n: int) -> Fraction:
        n = as_int(n)
        if n < 0 or n > self.order:
            raise DomainError(f"coefficient index {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _common_order(self, other: "QSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, QSeries):
            n = self._common_order(other)
            return QSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] += other
            return QSeries(tuple(cs))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, QSeries):
            n = self._common_order(other)
            return QSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = self._common_order(other)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(tuple(out))
        if isinstance(other, (int, Fraction)):
            return QSeries(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{i}")
        if not parts:
            return f"0 + O(q^{self.order + 1})"
        return " + ".join(parts) + f" + O(q^{self.order + 1})"


def euler_series(order: int) -> QSeries:
    """The product prod_{n>=1} (1 - q^n), truncated, via the sparse
    pentagonal-number expansion sum_k (-1)^k q^(k(3k-1)/2)."""
    order = as_int(order)
    if order < 0:
        raise DomainError("order must be nonnegative")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > order and e2 > order:
            break
        sign = -1 if k % 2 == 1 else 1
        if e1 <= order:
            coeffs[e1] += sign
        if e2 <= order:
            coeffs[e2] += sign
        k += 1
    return QSeries(tuple(coeffs))
