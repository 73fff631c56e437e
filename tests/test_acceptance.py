"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here or in the verification
suites this module calls; nothing is deferred to later calibration.
"""

import time

import pytest

from stratavol.verify import (
    suite_convergence,
    suite_covering_oracles,
    suite_cumulant_oracles,
    suite_dual_route,
    suite_expansions,
    suite_properties,
    suite_qseries,
    suite_theorem1,
    suite_worked_example,
)


def _run(criterion: str, suite_fn, time_budget: float | None = None):
    start = time.monotonic()
    results = suite_fn()
    elapsed = time.monotonic() - start
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} "
          f"({len(results) - len(failed)}/{len(results)} properties, {elapsed:.2f}s)")
    for r in failed:
        print(f"  failed: {r.name} {r.detail}")
    assert not failed, f"{criterion}: {[r.name for r in failed]}"
    if time_budget is not None:
        assert elapsed < time_budget, (
            f"{criterion} took {elapsed:.2f}s, budget {time_budget}s"
        )


def test_criterion_1_worked_example_reproduction():
    """Exact end-to-end values of the worked example, zero tolerance."""
    _run("1 (worked example)", suite_worked_example, time_budget=1.0)


def test_criterion_2_expansion_reproduction():
    """Exact top-weight expansions for k = 2 and k = 4."""
    _run("2 (expansions)", suite_expansions, time_budget=1.0)


def test_criterion_3_dual_route_identity():
    """Closed form equals the general pipeline for 1..8 simple points."""
    _run("3 (dual route n<=8)", suite_dual_route, time_budget=300.0)


def test_criterion_4_cumulant_oracle_equivalence():
    """Exponential-formula cumulants equal the series oracle (n <= 3,
    |m| <= 8) and the closed two-part covariance formula (k, l <= 6)."""
    _run("4 (cumulant oracles)", suite_cumulant_oracles, time_budget=120.0)


def test_criterion_5_covering_oracle_equivalence():
    """Burnside sums equal brute-force monodromy enumeration for all
    profiles with s <= 3 points, entries in {2,3,4}, d <= 4, in both the
    all-coverings and the connected count."""
    _run("5 (covering oracles)", suite_covering_oracles, time_budget=600.0)


def test_criterion_6_asymptotic_convergence():
    """Normalized partial sums for profile (2,2) against pi^4/270 at
    50-digit pi: within 30% at D=40 and closer than at D=20."""
    _run("6 (convergence)", suite_convergence, time_budget=600.0)


def test_criterion_7_qseries_identities():
    """Exact q-series identities through order 20."""
    _run("7 (q-series identities)", suite_qseries)


def test_criterion_8_theorem1_at_n1():
    """One-point theta identity at s in {2, 3, 5/2}, order 30."""
    _run("8 (one-point identity)", suite_theorem1)


def test_criterion_9_property_suites():
    """Pi homogeneity and parity (n <= 4, |m| <= 10), character
    orthogonality (d <= 6), transversality bound (n <= 6), spanning-forest
    identity (n <= 5), volume pi power on 10 strata."""
    _run("9 (property suites)", suite_properties)
