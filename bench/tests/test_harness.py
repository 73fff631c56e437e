"""Self-tests of the benchmark harness (not of the library).

usage: python3 -m pytest bench/tests -q

They run small subsets of each workload, so they take seconds, not the
minutes of a full benchmark run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

VOLUME_SUBSET = [["volume", [1, 1]], ["volume", [2]], ["volume", [3, 1]],
                 ["volume", [2, 2]], ["volume", [2, 1, 1]], ["volume", [1, 1, 1, 1]]]
COVER_SUBSET = [["cov_d", [2, 2], 6], ["cov_d", [3, 2], 5], ["cov_d", [4, 3], 7]]
CLI_SUBSET = [["cli", argv] for argv in (
    ["volume", "2,1,1"],
    ["cumulant", "3,1"],
    ["covers", "2,2", "--brute-force", "--dmax", "4"],
    ["covers", "3,2", "--connected", "--dmax", "8"],
    ["npoint-check", "--s=5/2", "--order", "15"],
    ["verify", "qseries"],
    ["verify", "cumulant-oracles"],
    ["simple-table", "--nmax", "4"],
    ["fk", "3", "--output", "json"],
    ["volume", "3"],
)]

# Every traced target, by the workload that is meant to exercise it.
EXERCISED_ON = {
    "volume_table": [
        "exact_arith.frak_z", "exact_arith.bernoulli", "exact_arith.PiScalar.ops",
        "partitions.set_partitions_of", "partitions.iter_set_partitions_with_blocks",
        "partitions.enum_complementary", "partitions.enum_partitions_of_weight",
        "partitions.meet", "shifted_symmetric.f_top_expansion",
        "cumulants.elementary_cumulant", "cumulants.wick_leading",
        "cumulants.f_cumulant_leading", "cumulants.c_const", "cumulants.c_simple",
        "cumulants.volume",
    ],
    "cover_series": [
        "characters.central_char_f", "characters.cache.get", "characters.dimension",
        "coverings.cov_d", "coverings.cov_series", "coverings.cov_prime_series",
        "coverings.cov_connected_series", "coverings.asymptotic_ratio",
        "partitions.iter_int_partitions", "partitions.mobius_coeff",
        "qseries.QSeries.mul", "qseries.QSeries.add", "qseries.euler_series",
    ],
    "cli_mix": [
        "exact_arith.frak_z_over_pi", "exact_arith.zeta_neg",
        "partitions.enum_int_partitions", "coverings.brute_force_hom_count",
        "shifted_symmetric.q_average", "shifted_symmetric.p_eval",
        "cumulants.elementary_cumulant_series_oracle", "npoint.direct_one_point",
        "npoint.theta_series", "npoint.verify_theorem1_n1", "verify.run_suite",
        "cli.main",
    ],
}
CUMULANT_SIDE = ("cumulants.", "exact_arith.frak_z")
CHARACTER_SIDE = ("characters.", "coverings.")


@pytest.fixture()
def work(tmp_path):
    (tmp_path / "cache").mkdir()
    return tmp_path


def _traced_calls(items, work) -> dict[str, int]:
    traces = run.run_pass(items, run.child_env(work), work, trace=True).traces
    calls: dict[str, int] = {}
    for t in traces:
        assert t["missed_bindings"] == []
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
    return calls


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for name in workloads.WORKLOADS:
        assert workloads.make_items(name, 7) == workloads.make_items(name, 7)
        assert workloads.make_items(name, 7) != workloads.make_items(name, 8)


def test_cli_mix_keeps_its_quotas():
    items = workloads.make_items("cli_mix", 3)
    assert len(items) == 60
    for pool in workloads.cli_pool().values():
        assert sum(1 for _, argv in items if argv in pool) == workloads.CLI_QUOTA


def test_reference_covers_every_item_of_every_population():
    ref = reference.load()
    population = workloads.volume_items() + workloads.cover_row_items() \
        + workloads.cover_ratio_items() \
        + [["cli", argv] for pool in workloads.cli_pool().values() for argv in pool]
    assert {reference.item_key(i) for i in population} == set(ref)


def test_tail_percentiles():
    for n, pct in ((63, 84.1), (87, 88.5), (60, 83.3)):
        assert run.tail_rank(n) == n - 11
        assert round(run.tail_percentile(n), 1) == pct


def test_calibration_cancels_the_host_speed():
    # The host runs at the reference speed for five items and at half of
    # it for three more; the sixth item straddles the change.  Kernel and
    # items take twice as long at half speed, and one kernel timing is
    # disturbed on its own.  The scaled times agree.
    ref = calibrate.REFERENCE_S
    kernel_s = [ref, ref, 1.5 * ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    seconds = [0.010] * 5 + [0.015] + [0.020] * 3
    scaled = calibrate.scaled(seconds, kernel_s)
    assert scaled[:5] + scaled[6:] == pytest.approx([0.010] * 8)
    with pytest.raises(ValueError):
        calibrate.scaled(seconds, kernel_s[:-1])


def test_a_perturbed_reference_counts_as_failed(work):
    items = VOLUME_SUBSET + COVER_SUBSET
    passes = [run.run_pass(items, run.child_env(work), work, trace=False)]
    ref = reference.load()
    assert run.count_failures(items, passes, ref) == 0
    key = reference.item_key(["volume", [3, 1]])
    (vol_num, vol_den, pi), c = ref[key]
    perturbed = dict(ref, **{key: [[vol_num + 1, vol_den, pi], c]})
    assert run.count_failures(items, passes, perturbed) == 1

    cli = [["cli", ["volume", "3,1"]], ["cli", ["volume", "3"]]]
    cli_passes = [run.run_pass(cli, run.child_env(work), work, trace=False)]
    assert run.count_failures(cli, cli_passes, ref) == 0
    key = reference.item_key(cli[1])
    assert run.count_failures(cli, cli_passes, dict(ref, **{key: [0, None]})) == 1


def _bindings():
    return {(name, key): value for name, module in tracing._package_modules().items()
            for key, value in vars(module).items()}


def test_tracing_changes_no_result_and_is_removed_afterwards():
    import stratavol.cli  # noqa: F401
    from stratavol.exact_arith import PiScalar

    before, mul = _bindings(), PiScalar.__mul__
    plain = worker.run_items(VOLUME_SUBSET + COVER_SUBSET, trace=False)
    traced = worker.run_items(VOLUME_SUBSET + COVER_SUBSET, trace=True)
    assert traced["results"] == plain["results"]
    assert traced["trace"]["missed_bindings"] == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert PiScalar.__mul__ is mul and PiScalar.__rmul__ is mul


def test_a_removed_target_reads_zero(monkeypatch):
    import stratavol
    import stratavol.characters

    monkeypatch.delattr(stratavol.characters, "central_char_f")
    monkeypatch.delattr(stratavol.characters, "CharTableCache")
    monkeypatch.delattr(stratavol, "character_cache")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("no_such_module", "f", tracing.COUNT, None),))
    traced = worker.run_items(COVER_SUBSET, trace=True)
    assert traced["results"] == worker.run_items(COVER_SUBSET, trace=False)["results"]
    assert traced["trace"]["missing_targets"] == [
        "characters.central_char_f", "characters.CharTableCache.get", "no_such_module.f"]
    assert traced["trace"]["cache_entries"] == 0
    done = run.Pass(True, traced["item_s"], traced["results"], 1.0, [traced["trace"]])
    metrics = run.per_layer(done, done)
    assert metrics["characters.central_char_f.calls"][0] == 0
    assert metrics["characters.cache.gets"][0] == 0
    assert metrics["coverings.cov_d.calls"][0] == len(COVER_SUBSET)


def test_a_failed_worker_gives_no_timings(work):
    items = [["volume", [2]], ["no_such_kind"]]
    failed = run.run_pass(items, run.child_env(work), work, trace=False)
    assert not failed.ok and failed.item_s == []
    assert run.count_failures(items, [failed], reference.load()) == 2
    assert run.per_layer(failed, failed)["cli.import_s"][0] == 0.0


def test_every_target_is_exercised_by_its_workload(work):
    homes = [name for names in EXERCISED_ON.values() for name in names]
    targets = {name or f"{module}.{attr}" for module, attr, _, name in tracing.TARGETS}
    assert len(homes) == len(set(homes)) and set(homes) == targets
    subsets = {"volume_table": VOLUME_SUBSET,
               "cover_series": COVER_SUBSET + [["asymptotic_ratio", [2, 2], 6]],
               "cli_mix": CLI_SUBSET}
    for workload, names in EXERCISED_ON.items():
        calls = _traced_calls(subsets[workload], work)
        assert [n for n in names if not calls.get(n)] == [], workload


def test_predicted_zeros_hold(work):
    volume_calls = _traced_calls(VOLUME_SUBSET, work)
    assert volume_calls["cumulants.elementary_cumulant"] > 0
    assert not any(v for k, v in volume_calls.items() if k.startswith(CHARACTER_SIDE))
    cover_calls = _traced_calls(COVER_SUBSET + [["asymptotic_ratio", [4, 3], 6]], work)
    assert cover_calls["characters.central_char_f"] > 0
    assert not any(v for k, v in cover_calls.items() if k.startswith(CUMULANT_SIDE))


def test_traced_counters_repeat_exactly(work):
    items = VOLUME_SUBSET + COVER_SUBSET
    first = run.run_pass(items, run.child_env(work), work, trace=True).traces[0]
    second = run.run_pass(items, run.child_env(work), work, trace=True).traces[0]
    for key in ("calls", "counters", "cumulant_keys", "cache_entries", "spans"):
        assert first[key] == second[key], key


def test_exits_without_a_result_when_the_library_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "cli_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
