"""Exact rational arithmetic with a symbolically tracked power of pi.

Every quantity produced by this package is a rational number times an
integer power of pi.  ``PiScalar`` stores the pair (coefficient, pi power)
exactly and refuses to add distinct pi powers.  The module also provides
the handful of special constants everything else is built from: Bernoulli
numbers, zeta at even positive and at negative integers, and the
even-coefficient sequence ``frak_z`` of the Taylor expansion of
pi*x/sin(pi*x).
"""

from __future__ import annotations

import threading
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError, Record, as_order

# 50 decimal digits of pi, used only for optional numeric annotations and
# convergence comparisons.  Core results never evaluate pi.
PI_50_DIGITS = "3.14159265358979323846264338327950288419716939937510"


def pi_approx() -> Fraction:
    """Rational approximation of pi accurate to 50 decimal digits."""
    digits = PI_50_DIGITS.replace(".", "")
    return Fraction(int(digits), 10 ** (len(digits) - 1))


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values
# ---------------------------------------------------------------------------

_bernoulli_lock = threading.Lock()
_bernoulli_memo: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6)}
# The last column of the tangent-number triangle (``bernoulli``): T_K after
# each pass 1..K, for the largest K computed so far, from T_1 = 1 (B_2).
_tangent_column: list[int] = [1]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2.

    Even indices come from the tangent numbers T_k = tan^(2k-1)(0):
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  These fill a triangle in
    integers (Brent and Harvey, "Fast computation of Bernoulli, tangent and
    secant numbers", arXiv:1108.0286): T_k starts at (k-1)!, and each pass
    j = 2..k makes it (k-j) T_{k-1} + (k-j+2) T_k, with T_{k-1} as pass j
    left it.  So each column follows from the one before in k
    multiply-adds by small integers, and only the last column is kept;
    every value computed is memoized.
    """
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    cached = _bernoulli_memo.get(n)
    if cached is not None:
        return cached
    if n % 2 == 1:
        return Fraction(0)
    with _bernoulli_lock:
        column = _tangent_column
        for k in range(len(column) + 1, n // 2 + 1):
            nxt = [(k - 1) * column[0]]
            for j in range(2, k):
                nxt.append((k - j) * column[j - 1] + (k - j + 2) * nxt[-1])
            nxt.append(2 * nxt[-1])
            column[:] = nxt
            power = 4**k
            _bernoulli_memo[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * nxt[-1],
                                              power * (power - 1))
        return _bernoulli_memo[n]


def zeta_even_over_pi(k: int) -> Fraction:
    """zeta(k)/pi^k for even k >= 2, as an exact rational.

    Realized through zeta(2j) = (-1)^(j+1) B_{2j} (2 pi)^(2j) / (2 (2j)!).
    """
    if k < 2 or k % 2 != 0:
        raise DomainError(f"zeta_even_over_pi needs even k >= 2, got {k}")
    j = k // 2
    sign = 1 if j % 2 == 1 else -1
    return Fraction(sign * 2**k, 2 * factorial(k)) * bernoulli(k)


def zeta_neg(k: int) -> Fraction:
    """zeta(-k) = -B_{k+1}/(k+1) for integer k >= 1."""
    if k < 1:
        raise DomainError(f"zeta_neg needs k >= 1, got {k}")
    return -bernoulli(k + 1) / (k + 1)


# ---------------------------------------------------------------------------
# PiScalar
# ---------------------------------------------------------------------------


class PiScalar(Record):
    """An exact rational multiplied by a nonnegative integer power of pi,
    read through ``errors.as_order``: pi^2.5 is a DomainError, and 2.0 is 2.

    Zero is canonical: coefficient 0 always carries pi power 0.  Addition is
    defined only between compatible powers (or with zero); anything else is
    an error so that accidental loss of the symbolic power cannot happen.
    """

    __slots__ = ("coeff", "pi_pow")

    def __init__(self, coeff: Fraction, pi_pow: int = 0) -> None:
        coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        pi_pow = as_order(pi_pow, "pi power")
        if coeff == 0:
            pi_pow = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_pow", pi_pow)

    @staticmethod
    def zero() -> "PiScalar":
        return PiScalar(Fraction(0), 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __bool__(self) -> bool:
        return self.coeff != 0

    def __add__(self, other: "PiScalar") -> "PiScalar":
        if not isinstance(other, PiScalar):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_pow != other.pi_pow:
            raise ValueError(
                f"cannot add pi^{self.pi_pow} and pi^{other.pi_pow} terms: "
                "a sum of distinct pi powers is not a PiScalar"
            )
        return PiScalar(self.coeff + other.coeff, self.pi_pow)

    def __sub__(self, other: "PiScalar") -> "PiScalar":
        return self + (-other)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.pi_pow)

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.coeff * other.coeff, self.pi_pow + other.pi_pow)
        if isinstance(other, (int, Fraction)):
            return PiScalar(self.coeff * other, self.pi_pow)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of PiScalar by zero")
            return PiScalar(self.coeff / other, self.pi_pow)
        return NotImplemented

    def approx(self) -> Fraction:
        """Numeric value at the 50-digit rational approximation of pi."""
        return self.coeff * pi_approx() ** self.pi_pow

    def as_json_dict(self) -> dict:
        return {
            "num": _digits(self.coeff.numerator),
            "den": _digits(self.coeff.denominator),
            "pi_pow": self.pi_pow,
        }

    def __str__(self) -> str:
        if self.coeff == 0:
            return "0"
        coeff = _digits(self.coeff.numerator)
        if self.coeff.denominator != 1:
            coeff += "/" + _digits(self.coeff.denominator)
        if self.pi_pow == 0:
            return coeff
        pi_part = "pi" if self.pi_pow == 1 else f"pi^{self.pi_pow}"
        if self.coeff == 1:
            return pi_part
        return f"{coeff}*{pi_part}"


def _digits(n: int) -> str:
    """n in decimal, every digit: unlike str(n), str(Decimal(n)) is exact
    at any length, with no limit on the digits of an int."""
    return str(Decimal(n))


@lru_cache(maxsize=None)
def frak_z(k: int) -> PiScalar:
    """Coefficient of x^k in the expansion pi*x/sin(pi*x) = sum frak_z(k) x^k.

    Equals (2 - 2^(2-k)) zeta(k) for even k >= 2, equals 1 at k = 0, and
    vanishes for odd k.  Negative arguments stand for absent Taylor
    coefficients and give 0.  Memoized; the shared values are immutable.
    """
    if k < 0 or k % 2 == 1:
        return PiScalar.zero()
    if k == 0:
        return PiScalar(Fraction(1), 0)
    ratio = (2 - Fraction(4, 2**k)) * zeta_even_over_pi(k)
    return PiScalar(ratio, k)


@lru_cache(maxsize=None)
def frak_z_over_pi(k: int) -> Fraction:
    """frak_z(k) with the pi power stripped: an exact rational; memoized."""
    return frak_z(k).coeff
