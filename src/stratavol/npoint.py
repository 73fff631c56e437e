"""Exact q-series check of the one-point function determinant identity.

Every odd-theta exponent is (2n+1)^2/8 = 1/8 + n(n+1)/2, so the theta
series and its x-derivatives are q^(1/8) times a series in whole powers of
q.  That common factor cancels from both sides of  theta(x) * F(x) =
theta'(0)  and is left out here, so every series is a plain ``QSeries``.
The formal variable x is specialized to a rational value s = e^(x/2),
which turns every q-coefficient into one exact rational; the identity is
then checked coefficientwise through q^order in cross-multiplied form,
avoiding series division.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import DomainError, Record, as_int, as_order
from .partitions import check_partition_work, iter_int_partitions
from .qseries import QSeries, euler_series

# Most partitions one identity check may visit, over every degree up to
# its order: the direct series sums over all of them, at 4-7 microseconds
# each (order 44 visits 451,501 and takes about 3 s; order 60 visits 6.6
# million and took 50 s).
NPOINT_WORK_CAP = 5 * 10**5


class EvaluatedPoint(Record):
    """A rational value for e^(x/2).  Values 0 and +-1 are excluded: they
    sit on the zero of the theta factor and the pole of the row sum at
    x = 0."""

    __slots__ = ("s",)

    def __init__(self, s: Fraction) -> None:
        s = Fraction(s)
        if s in (0, 1, -1):
            raise DomainError(f"evaluation point must avoid 0 and +-1, got {s}")
        object.__setattr__(self, "s", s)


def theta_series(s, deriv_order: int = 0, order: int = 0) -> QSeries:
    """The odd theta series divided by q^(1/8), differentiated
    ``deriv_order`` times in x and evaluated at e^(x/2) = s:

        sum_n (-1)^n (n + 1/2)^deriv_order q^(n(n+1)/2) s^(2n+1),

    truncated at q^order.  Any nonzero rational s is accepted; s = 1 gives
    the value (and derivatives) at x = 0.
    """
    s = s.s if isinstance(s, EvaluatedPoint) else Fraction(s)
    deriv_order, order = as_int(deriv_order), as_int(order)
    if s == 0:
        raise DomainError("evaluation point must be nonzero")
    if deriv_order < 0:
        raise DomainError("derivative order must be nonnegative")
    if order < 0:
        raise DomainError("order must be nonnegative")
    coeffs = [Fraction(0)] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        for nn in (n, -n - 1):  # both give the exponent n(n+1)/2
            sign = 1 if nn % 2 == 0 else -1
            coeffs[n * (n + 1) // 2] += (
                sign * Fraction(2 * nn + 1, 2) ** deriv_order * s ** (2 * nn + 1)
            )
        n += 1
    return QSeries(coeffs)


def theta_prime_zero(order: int) -> QSeries:
    """Derivative of the theta series at x = 0."""
    return theta_series(Fraction(1), deriv_order=1, order=order)


def direct_one_point(point: EvaluatedPoint, order: int) -> QSeries:
    """The one-point function from its definition: the normalized sum over
    all partitions of q^size times the row sum evaluated at s, exact to the
    given order.

    The row sum of lam at e^(x/2) = s is sum_i s^(2(lam_i - i) + 1) over
    its rows plus the geometric tail s^(-2 l - 1) / (1 - s^-2) over the
    rows i > l = length(lam), which needs |s| > 1.  Per degree, the
    exponents and lengths are counted in integers first, so each distinct
    power of s is taken once.
    """
    if not isinstance(point, EvaluatedPoint):
        point = EvaluatedPoint(Fraction(point))
    s, order = point.s, as_int(order)
    if abs(s) <= 1:
        raise DomainError(f"need |s| > 1 for the tail to converge, got {s}")
    if order < 0:
        raise DomainError("order must be nonnegative")
    powers: dict[int, Fraction] = {}

    def power(k: int) -> Fraction:
        if k not in powers:
            powers[k] = s**k
        return powers[k]

    tail = 1 / (1 - power(-2))
    raw = []
    for d in range(order + 1):
        rows: Counter[int] = Counter()
        lengths: Counter[int] = Counter()
        for lam in iter_int_partitions(d):
            for i, part in enumerate(lam, start=1):
                rows[2 * (part - i) + 1] += 1
            lengths[len(lam)] += 1
        finite = sum((n * power(k) for k, n in rows.items()), Fraction(0))
        ends = sum((n * power(-2 * ell - 1) for ell, n in lengths.items()), Fraction(0))
        raw.append(finite + tail * ends)
    return euler_series(order) * QSeries(raw)


def verify_theorem1_n1(point: EvaluatedPoint, order: int) -> bool:
    """Check theta(at s) * (direct one-point series) = theta'(0) through
    q^order, in cross-multiplied form.  Before any series is built, the
    partitions of degrees up to ``order`` that the direct series sums over
    are counted against ``NPOINT_WORK_CAP``."""
    if not isinstance(point, EvaluatedPoint):
        point = EvaluatedPoint(Fraction(point))
    order = as_order(order)
    check_partition_work(order, NPOINT_WORK_CAP, "one-point")
    lhs = theta_series(point.s, 0, order) * direct_one_point(point, order)
    return lhs == theta_prime_zero(order)
