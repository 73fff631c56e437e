"""Truncated formal power series in q with exact rational coefficients."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import add

from .errors import DomainError, Record, as_int, as_order


class QSeries(Record):
    """A power series truncated at order N: coefficients of q^0 .. q^N.

    All arithmetic truncates consistently; combining series of different
    orders truncates to the smaller one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if not coeffs:
            raise DomainError("QSeries needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries((Fraction(0),) * (as_order(order) + 1))

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries((Fraction(1),) + (Fraction(0),) * as_order(order))

    def coefficient(self, n: int) -> Fraction:
        n = as_int(n)
        if n < 0 or n > self.order:
            raise DomainError(f"coefficient index {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, QSeries):
            return QSeries(map(add, self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return QSeries((self.coeffs[0] + other, *self.coeffs[1:]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSeries(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(len(self.coeffs), len(other.coeffs))
            x, y = lead(self.coeffs[:n]), lead(other.coeffs[:n])
            if x[1].count(0) < y[1].count(0):  # only the outer factor's zeros are skipped
                x, y = y, x
            return QSeries(product_into([0] * n, 1, x, y))
        if isinstance(other, (int, Fraction)):
            return QSeries(c * other for c in self.coeffs)
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
    order = as_order(order)
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
    return QSeries(coeffs)


def lead(x: Sequence) -> tuple[int, Sequence]:
    """A truncated series with the degree of its first nonzero coefficient
    (its length when there is none)."""
    return next((i for i, v in enumerate(x) if v), len(x)), x


def product_into(out: list, scale, x, y) -> list:
    """Add scale * x * y, truncated to the length of ``out``, to ``out``,
    for series x and y given as ``lead`` pairs: degrees below their first
    nonzero coefficients are skipped, and so are the zero coefficients of
    x, the outer factor.  The package's one truncated series product."""
    n = len(out)
    (low_x, x), (low_y, y) = x, y
    for i in range(low_x, n - low_y):
        a = x[i]
        if a:
            a *= scale
            for j in range(low_y, n - i):
                out[i + j] += a * y[j]
    return out
