"""Named verification suites.

Each suite runs a family of exact identities or bounds and reports one
result per property.  The command line exposes them under ``verify`` and
the acceptance tests call the same functions, so continuous integration
and interactive checking share a single entry point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as iter_product
from math import factorial

from .characters import character, conjugacy_class_size
from .coverings import (
    asymptotic_ratio,
    brute_force_hom_count,
    cov_connected_series,
    cov_d,
)
from .cumulants import (
    WickGroups,
    c_const,
    c_simple,
    elementary_cumulant,
    elementary_cumulant_series_oracle,
    f_cumulant_leading,
    t_poly_forest_oracle,
    volume,
    wick_leading,
)
from .errors import DomainError, Record
from .exact_arith import PiScalar, frak_z, pi_approx
from .npoint import verify_theorem1_n1
from .partitions import (
    IntPartition,
    _complementary_blocks,
    enum_int_partitions,
    enum_set_partitions,
    iter_int_partitions,
    meet,
)
from .qseries import QSeries, euler_series
from .shifted_symmetric import f_top_expansion, q_average


class PropertyResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        super().__init__(name, passed, detail)


def _check(results: list[PropertyResult], name: str, passed: bool, detail: str = "") -> None:
    results.append(PropertyResult(name, bool(passed), detail))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_worked_example() -> list[PropertyResult]:
    """End-to-end exact values for the genus-3 stratum with zeros (3,1)."""
    out: list[PropertyResult] = []
    _check(out, "cumulant(1) = pi^2/6",
           elementary_cumulant((1,)) == PiScalar(Fraction(1, 6), 2))
    _check(out, "cumulant(2) = 0", elementary_cumulant((2,)).is_zero())
    _check(out, "cumulant(2,2) = 16/45 pi^4",
           elementary_cumulant((2, 2)) == PiScalar(Fraction(16, 45), 4))
    _check(out, "cumulant(4,2) = 416/315 pi^6",
           elementary_cumulant((4, 2)) == PiScalar(Fraction(416, 315), 6))
    wl = wick_leading(WickGroups((IntPartition([4]), IntPartition([2]))))
    _check(out, "wick [(4)],[(2)] = 416/315 pi^6",
           wl.value == PiScalar(Fraction(416, 315), 6) and wl.hbar_exponent == 7)
    _check(out, "f-pipeline leading (4,2) = 128/945 pi^6",
           f_cumulant_leading((4, 2)) == PiScalar(Fraction(128, 945), 6))
    _check(out, "c(4,2) = 8/42525 pi^6",
           c_const((4, 2)) == PiScalar(Fraction(8, 42525), 6))
    vr = volume((3, 1))
    _check(out, "volume(3,1) = 8/297675 pi^6",
           vr.volume == PiScalar(Fraction(8, 297675), 6)
           and vr.genus == 3 and vr.dim == 7)
    return out


def suite_expansions() -> list[PropertyResult]:
    """Top-weight expansions of the 2- and 4-cycle generators."""
    out: list[PropertyResult] = []
    f2 = f_top_expansion(2).as_dict()
    _check(out, "f2 = 1/2 p[2]",
           f2 == {IntPartition([2]): Fraction(1, 2)})
    f4 = f_top_expansion(4).as_dict()
    _check(out, "f4 = 1/4 p[4] - p[2,1]",
           f4 == {IntPartition([4]): Fraction(1, 4),
                  IntPartition([2, 1]): Fraction(-1)})
    return out


def suite_dual_route() -> list[PropertyResult]:
    """Closed form for simple branching against the general pipeline."""
    out: list[PropertyResult] = []
    nmax = 8
    for n in range(1, nmax + 1):
        simple = c_simple(n)
        general = c_const((2,) * n)
        _check(out, f"c_simple({n}) = c(2x{n})", simple == general,
               f"{simple} vs {general}")
    return out


def suite_cumulant_oracles() -> list[PropertyResult]:
    """Exponential-formula cumulants against the multivariate series oracle
    and the closed one- and two-part formulas, and the Wick tree DP against
    the sum over enumerated complementary partitions."""
    out: list[PropertyResult] = []
    keys = [key for size in range(1, 9) for key in iter_int_partitions(size) if len(key) <= 3]
    bad = [key for key in keys
           if elementary_cumulant(key) != elementary_cumulant_series_oracle(key)]
    _check(out, f"series oracle agrees on {len(keys)} keys (n <= 3, |m| <= 8)",
           not bad, f"mismatches: {bad}")

    bad = []
    for k in range(1, 7):
        expect = factorial(k) * frak_z(k + 1)
        if elementary_cumulant((k,)) != expect:
            bad.append(k)
    _check(out, "one-part closed form k <= 6", not bad, f"mismatches: {bad}")

    bad = []
    for k in range(1, 7):
        for l in range(1, k + 1):
            expect = factorial(k + l) * frak_z(k + l) \
                - (factorial(k) * factorial(l)) * frak_z(k) * frak_z(l)
            if elementary_cumulant((k, l)) != expect:
                bad.append((k, l))
    _check(out, "two-part closed form k,l <= 6", not bad, f"mismatches: {bad}")

    # Groupings of 3 groups with at most 5 parts in {1, 2}: it takes three
    # groups for two of one type to hang below a third.  Those with an odd
    # number of 2s vanish term by term by parity and are skipped.
    kinds = [g for n in range(1, 4) for g in combinations_with_replacement((2, 1), n)]
    groupings = [
        groups for groups in combinations_with_replacement(kinds, 3)
        if sum(map(len, groups)) <= 5 and sum(g.count(2) for g in groups) % 2 == 0
    ]
    bad = [g for g in groupings if wick_leading(g).value.coeff != _wick_by_enumeration(g)]
    _check(out, f"Wick tree DP = complementary-partition sum on {len(groupings)} "
           "groupings (3 groups, <= 5 parts in {1, 2})", not bad, f"mismatches: {bad}")
    return out


def _wick_by_enumeration(groups) -> Fraction:
    """The Wick sum of ``groups`` over its pi power, one product of block
    cumulants per partition complementary to the grouping: the partitions
    are grown as trees by ``partitions._complementary_blocks`` and counted
    per multiset of sorted block keys."""
    parts = [p for g in groups for p in g]
    group_of = [j for j, g in enumerate(groups) for _ in g]
    shapes: dict[tuple[tuple[int, ...], ...], int] = {}
    for blocks in _complementary_blocks(group_of):
        shape = tuple(sorted(
            tuple(sorted((parts[x - 1] for x in block), reverse=True)) for block in blocks
        ))
        shapes[shape] = shapes.get(shape, 0) + 1
    total = Fraction(0)
    for shape, count in shapes.items():
        term = Fraction(count)
        for key in shape:
            term *= elementary_cumulant(key).coeff
        total += term
    return total


def suite_covering_oracles() -> list[PropertyResult]:
    """Burnside character sums against direct monodromy enumeration, for
    every profile with up to three points and entries in {2,3,4}."""
    out: list[PropertyResult] = []
    dmax = 4
    profiles = [
        p
        for s in (1, 2, 3)
        for p in iter_product((2, 3, 4), repeat=s)
    ]
    bad_all = []
    bad_conn = []
    for profile in profiles:
        connected = cov_connected_series(profile, dmax)
        for d in range(1, dmax + 1):
            if cov_d(profile, d) != brute_force_hom_count(profile, d, False):
                bad_all.append((profile, d))
            want = brute_force_hom_count(profile, d, True)
            if connected.coefficient(d) != want:
                bad_conn.append((profile, d))
    _check(out, f"Burnside = brute force on {len(profiles)} profiles, d <= {dmax}",
           not bad_all, f"mismatches: {bad_all}")
    _check(out, "connected series = transitive enumeration",
           not bad_conn, f"mismatches: {bad_conn}")
    return out


def suite_convergence() -> list[PropertyResult]:
    """Normalized covering partial sums for the profile (2,2) against the
    exact constant pi^4/270, at 50-digit pi."""
    out: list[PropertyResult] = []
    d_far, d_near = 40, 20
    target = Fraction(1, 270) * pi_approx() ** 4
    r_near = asymptotic_ratio((2, 2), d_near) / target
    r_far = asymptotic_ratio((2, 2), d_far) / target
    err_near = abs(r_near - 1)
    err_far = abs(r_far - 1)
    def approx(x: Fraction) -> str:
        scaled = (x * 10**4).numerator // (x * 10**4).denominator
        return f"{scaled // 10**4}.{scaled % 10**4:04d}"

    _check(out, f"ratio at D={d_far} within 30%", err_far <= Fraction(3, 10),
           f"|ratio-1| ~ {approx(err_far)}")
    _check(out, f"D={d_far} closer than D={d_near}", err_far < err_near,
           f"{approx(err_far)} < {approx(err_near)}")
    return out


def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def suite_qseries() -> list[PropertyResult]:
    """q-series identities: the first power-sum average is the weight-2
    Eisenstein expansion, the second vanishes, and the sparse pentagonal
    product inverts the partition-count series."""
    out: list[PropertyResult] = []
    order = 20
    g2 = QSeries(
        [Fraction(-1, 24)] + [Fraction(_sigma1(n)) for n in range(1, order + 1)]
    )
    _check(out, "average of p1 = -1/24 + sum sigma1(n) q^n",
           q_average((1,), order) == g2)
    _check(out, "average of p2 = 0", q_average((2,), order).is_zero())
    counts = QSeries(
        [Fraction(len(enum_int_partitions(d))) for d in range(order + 1)]
    )
    _check(out, "euler product x partition counts = 1",
           euler_series(order) * counts == QSeries.one(order))
    return out


def suite_theorem1() -> list[PropertyResult]:
    """Theta-ratio identity for the one-point function at three generic
    rational points."""
    out: list[PropertyResult] = []
    order = 30
    for s in (Fraction(2), Fraction(3), Fraction(5, 2)):
        _check(out, f"one-point identity at s={s}, order {order}",
               verify_theorem1_n1(s, order))
    return out


def suite_properties() -> list[PropertyResult]:
    """Structural invariants: pi homogeneity and parity of cumulants,
    character orthogonality, the transversality bound, the spanning-forest
    identity, and the volume pi power."""
    out: list[PropertyResult] = []

    bad = []
    for key in (key for size in range(1, 11) for key in iter_int_partitions(size)
                if len(key) <= 4):
        n = len(key)
        size = sum(key)
        value = elementary_cumulant(key)
        if (size - n) % 2 == 1:
            if not value.is_zero():
                bad.append(("parity", key))
        elif not value.is_zero() and value.pi_pow != size - n + 2:
            bad.append(("pi-power", key))
    _check(out, "cumulant pi homogeneity and parity (n <= 4, |m| <= 10)",
           not bad, f"violations: {bad}")

    bad = []
    for d in range(1, 7):
        types = enum_int_partitions(d)
        lams = enum_int_partitions(d)
        for rho in types:
            size_rho = conjugacy_class_size(rho)
            for sigma in types:
                acc = sum(
                    character(lam, rho) * character(lam, sigma) for lam in lams
                ) * size_rho
                want = factorial(d) if rho == sigma else 0
                if acc != want:
                    bad.append((d, rho, sigma))
    _check(out, "character column orthogonality d <= 6", not bad,
           f"violations: {bad[:3]}")

    bad = []
    for n in range(1, 7):
        parts = enum_set_partitions(n)
        for a in parts:
            for b in parts:
                if a.length + b.length - meet(a, b).length > n:
                    bad.append((n, a, b))
    _check(out, "transversality bound over pairs, n <= 6", not bad,
           f"violations: {bad[:3]}")

    bad = []
    for n in range(1, 6):
        for rho in enum_set_partitions(n):
            if not t_poly_forest_oracle(rho):
                bad.append(rho)
    _check(out, "tree factor = spanning-forest sum, n <= 5", not bad,
           f"violations: {bad[:3]}")

    strata = [
        (2,), (1, 1), (4,), (3, 1), (2, 2),
        (2, 1, 1), (1, 1, 1, 1), (6,), (5, 1), (2, 2, 2),
    ]
    bad = []
    for mu in strata:
        vr = volume(mu)
        if vr.volume.pi_pow != 2 * vr.genus:
            bad.append(mu)
    _check(out, "volume pi power = 2 genus on 10 strata", not bad,
           f"violations: {bad}")
    return out


SUITES = {
    "worked-example": suite_worked_example,
    "expansions": suite_expansions,
    "dual-route": suite_dual_route,
    "cumulant-oracles": suite_cumulant_oracles,
    "covering-oracles": suite_covering_oracles,
    "convergence": suite_convergence,
    "qseries": suite_qseries,
    "theorem1": suite_theorem1,
    "properties": suite_properties,
}


def run_suite(name: str) -> list[PropertyResult]:
    if name == "all":
        results: list[PropertyResult] = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return SUITES[name]()
