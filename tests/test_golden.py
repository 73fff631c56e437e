"""Frozen exact volumes: every refactor of the pipeline must reproduce them.

``data/golden_volumes.json`` holds volume(mu) and c(mu + 1) for all 82
strata of genus 2 to 6, written before the pipeline was refactored: the 40
strata of genus 2 to 5 first, then the 42 of genus 6.
``data/golden_genus8.json`` holds the same for all 135 strata of genus 8,
written when the Wick sum became a rooted-tree DP over group multiplicities;
the 116 strata the tree-growing route could compute were checked identical
to it first.
``data/golden_genus9.json`` holds the same for all 231 strata of genus 9,
written before the Wick tree sum's states were shared across calls.
``data/golden_genus7.json`` and ``data/golden_genus10.json`` hold the same
for all 77 strata of genus 7 and all 385 of genus 10, written before the
Wick and cumulant caps became one price, with the caps lifted in the
writing process only (56 of the genus-10 strata were over them).  Its 19
genus-7 strata with at most three zeros equal a table written before the
cumulants moved to the exponential formula, which it replaced.
``data/golden_covers.json`` holds the Burnside rows ``cov_d(p, d)`` and the
connected series coefficients for d <= 20 of 13 covering profiles, written
before the Burnside sums of all sub-profiles were merged into one sweep per
degree.  Profiles whose total ramification sum(m_i - 1) is odd, such as
(3,2) or (12,), have every row 0 (the values on lam and its transpose
cancel), so profiles with nonzero rows are frozen beside them.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import stratavol.cumulants
from stratavol.coverings import cov_connected_series, cov_d
from stratavol.cumulants import volume
from stratavol.exact_arith import PiScalar
from stratavol.partitions import enum_int_partitions

ROWS = json.loads(
    (Path(__file__).parent / "data" / "golden_volumes.json").read_text()
)
GOLDEN = [row for row in ROWS if sum(row["mu"]) <= 8]
GENUS_6 = [row for row in ROWS if sum(row["mu"]) == 10]
GENUS_8 = json.loads((Path(__file__).parent / "data" / "golden_genus8.json").read_text())
GENUS_9 = json.loads((Path(__file__).parent / "data" / "golden_genus9.json").read_text())
GENUS_7 = json.loads((Path(__file__).parent / "data" / "golden_genus7.json").read_text())
GENUS_10 = json.loads((Path(__file__).parent / "data" / "golden_genus10.json").read_text())
COVERS = json.loads((Path(__file__).parent / "data" / "golden_covers.json").read_text())


def test_golden_table_covers_genus_2_to_5():
    want = [list(mu) for g in range(2, 6) for mu in enum_int_partitions(2 * g - 2)]
    assert [row["mu"] for row in GOLDEN] == want


def test_golden_volumes_exact():
    for row in GOLDEN:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


def test_golden_table_is_genus_2_to_5_then_genus_6():
    want = [list(mu) for g in range(2, 7) for mu in enum_int_partitions(2 * g - 2)]
    assert [row["mu"] for row in ROWS] == want
    assert GOLDEN + GENUS_6 == ROWS


def test_golden_genus_6_volumes_exact():
    for row in GENUS_6:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


def test_golden_genus_8_table_is_every_stratum():
    assert [row["mu"] for row in GENUS_8] == [list(mu) for mu in enum_int_partitions(14)]


def test_golden_genus_8_volumes_exact():
    for row in GENUS_8:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


def test_golden_genus_9_table_is_every_stratum():
    assert [row["mu"] for row in GENUS_9] == [list(mu) for mu in enum_int_partitions(16)]


def test_golden_genus_9_volumes_exact():
    for row in GENUS_9:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


def test_golden_genus_7_table_is_every_stratum():
    assert [row["mu"] for row in GENUS_7] == [list(mu) for mu in enum_int_partitions(12)]


def test_golden_genus_7_volumes_exact():
    for row in GENUS_7:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


def test_golden_genus_10_table_is_every_stratum():
    assert [row["mu"] for row in GENUS_10] == [list(mu) for mu in enum_int_partitions(18)]


def test_golden_genus_10_volumes_exact():
    for row in GENUS_10:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


def test_golden_genus_2_to_8_volumes_unpriced(monkeypatch):
    # At the default cap no stratum to genus 10 is priced
    # (``cumulants.GENERATOR_PRICE_PIN``): with both price routines made to
    # raise, every stratum of genus 2-8 still equals its table.
    def priced(*args):
        raise AssertionError(f"priced {args}")

    monkeypatch.setattr(stratavol.cumulants, "check_generator_work", priced)
    monkeypatch.setattr(stratavol.cumulants, "_check_work", priced)
    for row in ROWS + GENUS_7 + GENUS_8:
        result = volume(row["mu"])
        assert result.volume.as_json_dict() == row["volume"], row["mu"]
        assert result.c_const.as_json_dict() == row["c"], row["mu"]


# Eskin-Masur-Zorich normalization: 2 * dim * volume(mu).
EMZ_ANCHORS = {
    (2,): PiScalar(Fraction(1, 120), 4),
    (1, 1): PiScalar(Fraction(1, 135), 4),
    (4,): PiScalar(Fraction(61, 108864), 6),
    (3, 1): PiScalar(Fraction(16, 42525), 6),
}


@pytest.mark.parametrize("mu", sorted(EMZ_ANCHORS))
def test_eskin_masur_zorich_values(mu):
    result = volume(mu)
    assert result.volume * (2 * result.dim) == EMZ_ANCHORS[mu]


def test_golden_covering_table_profiles():
    assert list(COVERS["profiles"]) == [
        "2,2", "3,2", "4,3", "2,2,2", "6,4", "5,3,2", "12", "3,3,3",
        "3,3", "4,2", "5,3", "2,2,2,2", "13",
    ]


@pytest.mark.parametrize("key", sorted(COVERS["profiles"]))
def test_golden_covering_rows_exact(key):
    profile = tuple(int(m) for m in key.split(","))
    dmax = COVERS["dmax"]
    want = COVERS["profiles"][key]
    assert [str(cov_d(profile, d)) for d in range(dmax + 1)] == want["cov_d"]
    series = cov_connected_series(profile, dmax)
    assert [str(series.coefficient(d)) for d in range(dmax + 1)] == want["connected"]
