"""Regularized power sums on partitions and their q-averages.

The generator p_k evaluates on a partition lam as a finite sum over the
rows plus a zeta-regularization constant; monomials p_lam form the working
basis, graded by the weight |lam| + length(lam).  The q-average of p_mu is
the normalized sum over all partitions weighted by q^size, an exact
truncated q-series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, Record, as_int
from .exact_arith import zeta_neg
from .partitions import IntPartition, enum_partitions_of_weight, iter_int_partitions
from .qseries import QSeries, euler_series


def p_eval(k: int, lam) -> Fraction:
    """Value of the k-th regularized power sum on a partition.

    Only rows of lam contribute to the bracket sum (rows beyond the length
    cancel identically), so the evaluation is a finite exact sum plus the
    constant (1 - 2^-k) zeta(-k).
    """
    k = as_int(k)
    if k < 1:
        raise DomainError(f"power sum index must be >= 1, got {k}")
    lam = IntPartition(lam)
    half = Fraction(1, 2)
    acc = Fraction(0)
    for i, part in enumerate(lam, start=1):
        acc += (part - i + half) ** k - (-i + half) ** k
    return acc + (1 - Fraction(1, 2**k)) * zeta_neg(k)


def q_average(mu, order: int) -> QSeries:
    """Truncated q-series of the average of prod_i p_{mu_i} over partitions
    weighted by q^size, normalized so the average of 1 is 1.  With
    zeta(-k) = a_k / b_k, 2^k b_k p_k(lam) is the integer
    b_k sum_i [(2 lam_i - 2i + 1)^k - (1 - 2i)^k] + (2^k - 1) a_k, so each
    degree sums integers and divides once by prod_i 2^{mu_i} b_{mu_i}."""
    order = as_int(order)
    if order < 0:
        raise DomainError("order must be nonnegative")
    mu = IntPartition(mu)
    factors = []  # (k, multiplicity, b_k, (2^k - 1) a_k)
    scale = 1
    for k, mult in sorted(mu.multiplicities().items()):
        z = zeta_neg(k)
        factors.append((k, mult, z.denominator, (2**k - 1) * z.numerator))
        scale *= (2**k * z.denominator) ** mult
    raw = []
    for d in range(order + 1):
        acc = 0
        for lam in iter_int_partitions(d):
            term = 1
            for k, mult, den, shift in factors:
                rows = sum(
                    (2 * part - 2 * i + 1) ** k - (1 - 2 * i) ** k
                    for i, part in enumerate(lam, start=1)
                )
                term *= (den * rows + shift) ** mult
            acc += term
        raw.append(Fraction(acc, scale))
    return euler_series(order) * QSeries(raw)


class PExpansion(Record):
    """A finite linear combination of power-sum monomials, keyed by the
    index partition.  No zero coefficients are stored."""

    __slots__ = ("terms",)  # tuple[tuple[IntPartition, Fraction], ...]

    def as_dict(self) -> dict[IntPartition, Fraction]:
        return dict(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for i, (lam, c) in enumerate(self.terms):
            mono = "p[" + ",".join(str(p) for p in lam) + "]"
            if i == 0:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            chunks.append(f"{sign}{abs(c)} {mono}")
        return "".join(chunks)


@lru_cache(maxsize=None)
def f_top_expansion(k: int) -> PExpansion:
    """Top-weight part of the central character generator of k-cycles in
    the power-sum basis: a sum over partitions of weight k+1 with
    coefficient (-k)^(length-1) / (k * prod of multiplicity factorials).

    Lower-weight terms are not produced; leading-order computations
    downstream depend only on this part.  The product of multiplicity
    factorials is taken in integers along the runs of equal parts, one
    Fraction per term; ``enum_partitions_of_weight`` lists the partitions
    by length and then lexicographically, which is PExpansion's order.
    The expansion is immutable and memoized on k.
    """
    k = as_int(k)
    if k < 2:
        raise DomainError(f"expansion needs k >= 2, got {k}")
    terms = []
    for lam in enum_partitions_of_weight(k + 1):
        denominator = k
        run = 1
        for i in range(1, len(lam)):
            run = run + 1 if lam[i] == lam[i - 1] else 1
            denominator *= run
        terms.append((lam, Fraction((-k) ** (len(lam) - 1), denominator)))
    return PExpansion(tuple(terms))
