import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from decimal import getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import stratavol.cli
import stratavol.coverings
import stratavol.cumulants
import stratavol.npoint
from stratavol.cli import build_parser, main
from stratavol.cumulants import SIMPLE_WORK_CAP
from stratavol.errors import ResourceCapError
from stratavol.exact_arith import PiScalar
from stratavol.npoint import NPOINT_WORK_CAP
from stratavol.partitions import check_partition_work

from .test_coverings import _priced

TESTS = Path(__file__).resolve().parent
# Covers requests (profile, --dmax) that the Burnside cap must refuse: a
# short cycle whose moment growth through 2000 is over it, and a long one
# whose sweeps through 70 are.  Every covers request of the tests with a
# literal profile and --dmax must be under the cap.
OVER_CAP_COVERS = (("2", 2000), ("5", 70))
# Likewise the npoint-check order that the one-point work cap must refuse.
OVER_CAP_ORDER = 80
# And the simple points (of `volume` and `simple-table --nmax`) that the
# simple-branching work cap must refuse.
OVER_CAP_SIMPLE = 100


def _bench_cli_pool() -> dict[str, list[list[str]]]:
    """Every CLI request of the benchmark's ``cli_mix``, by kind."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", TESTS.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.cli_pool()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVolumeCommand:
    def test_worked_example_json(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "3,1")
        assert code == 0
        data = json.loads(out)
        assert data["volume"] == {"num": "8", "den": "297675", "pi_pow": 6}
        assert data["dim"] == 7
        assert data["genus"] == 3

    def test_odd_total_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "volume", "3")
        assert code == 2
        assert "must be even" in err

    def test_cross_check_simple(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "1,1", "--cross-check")
        assert code == 0
        data = json.loads(out)
        assert data["volume"] == {"num": "1", "den": "1350", "pi_pow": 4}
        assert data["route"] == "simple-closed-form"

    def test_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "3,1", "--output", "plain")
        assert code == 0
        assert "8/297675*pi^6" in out

    @pytest.mark.parametrize("argv", [
        ["volume", "60"],
        ["cconst", ",".join(["2"] * 100)],
        ["volume", ",".join(["1"] * OVER_CAP_SIMPLE), "--cross-check"],
        ["fk", "70"],
    ])
    def test_wick_work_cap_exit_3_up_front(self, capsys, monkeypatch, argv):
        # f_61 has 178,651 terms; a hundred groups of one type have few DP
        # states but sub-blocks of up to a hundred parts, whose values the
        # price must bound.  ``fk k`` is refused exactly when ``cconst k``
        # is.
        def forbidden(*args, **kwargs):
            raise AssertionError("an expansion, a cumulant or a closed form was computed")

        for name in ("_common_denominator", "_cumulant_over_pi", "_wick_tree_sum",
                     "f_top_expansion", "c_simple"):
            monkeypatch.setattr(stratavol.cumulants, name, forbidden)
        monkeypatch.setattr(stratavol.cli, "f_top_expansion", forbidden)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 3
        assert out == "" and "cap" in err
        assert elapsed < 1.0, f"{argv[0]} took {elapsed:.2f} s to hit the cap"

    def test_approx_annotation(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "3,1", "--approx")
        data = json.loads(out)
        assert data["volume"]["approx"].startswith("0.02583")


class TestCumulantCommands:
    def test_cumulant(self, capsys):
        code, out, _ = run_cli(capsys, "cumulant", "4,2")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == {"num": "416", "den": "315", "pi_pow": 6}

    def test_cconst(self, capsys):
        code, out, _ = run_cli(capsys, "cconst", "4,2")
        assert code == 0
        data = json.loads(out)
        assert data["c"] == {"num": "8", "den": "42525", "pi_pow": 6}

    def test_resource_cap_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "cumulant", ",".join(["2"] * 100))
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("key", ["2400", "3000", ",".join(["300"] * 12),
                                     ",".join(map(str, range(41, 29, -1))),
                                     ",".join(map(str, range(136, 124, -1)))])
    def test_work_cap_exits_fast(self, capsys, monkeypatch, key):
        # Over the price by the Bernoulli numbers, and by them and the
        # Wick tree sum's states, whose products grow with the parts:
        # uncapped, `cumulant 2400` took 2.4 s, `cumulant 3000` 4.9 s and
        # 41, 40, ..., 30 1.9 s.
        def forbidden(*args):
            raise AssertionError("a cumulant was computed")

        monkeypatch.setattr(stratavol.cumulants, "_cumulant_over_pi", forbidden)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cumulant", key)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == "" and "cumulant work" in err


    @pytest.mark.parametrize("output", ["json", "plain"])
    def test_long_results_print_in_full(self, capsys, monkeypatch, output):
        # 7^6000 has 5,071 digits, over the 4,300 that str(int) allows by
        # default; the limit itself is left as it was.
        value = PiScalar(Fraction(7**6000, 3), 2)
        monkeypatch.setattr(stratavol.cli, "elementary_cumulant", lambda m: value)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run_cli(capsys, "cumulant", "2", "--output", output)
        assert code == 0 and out.count(f"{pow(7, 6000, 10**6)}/3*pi^2" if output == "plain"
                                       else f"{pow(7, 6000, 10**6)}\"") == 1
        assert len(out) > 5071
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestFkCommand:
    def test_plain_default(self, capsys):
        code, out, _ = run_cli(capsys, "fk", "4")
        assert code == 0
        assert out.strip() == "1/4 p[4] - 1 p[2,1]"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "fk", "4", "--output", "json")
        data = json.loads(out)
        assert data == {
            "k": 4,
            "terms": [{"p": [4], "coeff": "1/4"}, {"p": [2, 1], "coeff": "-1"}],
        }


def _forbid_burnside_work(monkeypatch):
    """Make any partition sweep or column growth fail the test."""
    def forbidden(*args):
        raise AssertionError("a Burnside row was summed")

    monkeypatch.setattr(stratavol.coverings, "iter_int_partitions", forbidden)
    monkeypatch.setattr(stratavol.coverings, "_grow_columns", forbidden)


class TestCoversCommand:
    def test_connected_csv(self, capsys):
        code, out, _ = run_cli(capsys, "covers", "2,2", "--dmax", "4", "--connected")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "profile;d;kind;count"
        assert "2,2;2;connected;2" in lines

    def test_json_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "covers", "2,2", "--dmax", "3", "--output", "json"
        )
        rows = json.loads(out)
        by_d = {r["d"]: r["count"] for r in rows}
        assert by_d[2] == "2"

    def test_brute_force_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "covers", "2,2", "--dmax", "2", "--connected", "--brute-force"
        )
        assert code == 0
        assert "2,2;2;brute-connected;2" in out

    def test_empty_request_exit_2(self, capsys):
        for dmax in ("-1", "0"):
            code, out, err = run_cli(capsys, "covers", "2,2", "--dmax", dmax)
            assert code == 2
            assert out == "" and "--dmax" in err

    def test_brute_force_cap_checked_before_rows(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a covering row was computed")

        monkeypatch.setattr(stratavol.cli, "cov_series", forbidden)
        monkeypatch.setattr(stratavol.cli, "cov_connected_series", forbidden)
        monkeypatch.setattr(stratavol.cli, "brute_force_hom_count", forbidden)
        for extra in ((), ("--connected",)):
            code, out, err = run_cli(
                capsys, "covers", "4,3", "--dmax", "24", "--brute-force", *extra
            )
            assert code == 3
            assert out == "" and "cap" in err


    def test_brute_force_work_cap_exits_fast(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a covering row was computed")

        monkeypatch.setattr(stratavol.cli, "cov_series", forbidden)
        monkeypatch.setattr(stratavol.cli, "brute_force_hom_count", forbidden)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "covers", "5,5,5,5", "--dmax", "5", "--brute-force")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == "" and "work" in err

    def test_brute_force_work_cap_alone_bounds_the_degree(self, capsys):
        # Degree 6 alone is past the work cap, so a huge --dmax is refused
        # at once, while cycles longer than every degree take no work: each
        # row is zero.
        start = time.perf_counter()
        argv = ["covers", "2", "--brute-force", "--dmax", str(10**9)]
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == "" and "brute-force work 533492 " in err
        code, out, _ = run_cli(capsys, "covers", "9", "--dmax", "8", "--brute-force")
        assert code == 0
        assert [row.rsplit(";", 1)[1] for row in out.splitlines()[1:]] == ["0"] * 16

    def test_brute_force_of_three_five_cycles_admitted(self, capsys):
        # Priced by its tally, the degree-5 count of (5,5,5) is admitted
        # and agrees with the Burnside row.
        code, out, _ = run_cli(capsys, "covers", "5,5,5", "--dmax", "5", "--brute-force")
        assert code == 0
        rows = dict(line.rsplit(";", 1) for line in out.splitlines()[1:])
        assert rows["5,5,5;5;brute-all"] == rows["5,5,5;5;all"] != "0"

    def test_burnside_work_cap_exits_fast(self, capsys, monkeypatch):
        # Over the connected cap too, 2 --connected --dmax 2000 is refused
        # by that one first.
        _forbid_burnside_work(monkeypatch)
        for profile, dmax, extra in [(*OVER_CAP_COVERS[0], ()), (*OVER_CAP_COVERS[1], ()),
                                     (*OVER_CAP_COVERS[1], ("--connected",))]:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "covers", profile, "--dmax", str(dmax), *extra)
            assert time.perf_counter() - start < 1.0
            assert code == 3
            assert out == "" and "Burnside work" in err

    def test_wide_profile_exits_fast(self, capsys, monkeypatch):
        # 20 distinct cycles: 2^19 sub-profiles up to degree 20, refused
        # before any row, and their connected series to 21 by the connected
        # cap first; with every cycle longer than the degree, the rows are
        # zeros at once.
        wide = ",".join(str(m) for m in range(2, 22))
        _forbid_burnside_work(monkeypatch)
        for dmax, extra, why in ((20, (), "524288 sub-profiles"),
                                 (21, ("--connected",), "connected series work")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "covers", wide, "--dmax", str(dmax), *extra)
            assert time.perf_counter() - start < 1.0
            assert code == 3
            assert out == "" and why in err
        monkeypatch.undo()
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "covers", wide + ",22,23,24,25", "--dmax", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines()[1:] == [wide + ",22,23,24,25;1;all;0"]

    def test_connected_cycles_longer_than_dmax_exit_fast(self, capsys):
        # Ten distinct cycles, or twelve transpositions, all longer than
        # the degree: zero at once, where inclusion-exclusion over set
        # partitions of the points would sum Bell(10) or Bell(12) terms.
        for profile in (",".join(map(str, range(2, 12))), ",".join(["2"] * 12)):
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "covers", profile, "--connected", "--dmax", "1")
            assert time.perf_counter() - start < 1.0
            assert code == 0
            assert out.splitlines()[1:] == [f"{profile};1;connected;0"]

    def test_many_equal_cycles_connected_exit_3_fast(self, capsys):
        # Under the Burnside cap, but 501,501 first-block pairs: refused
        # by the connected-series cap before any row.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "covers", ",".join(["2"] * 1000),
                                 "--connected", "--dmax", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "connected series work" in err

    def test_empty_profile_counts_unramified_coverings(self, capsys):
        code, out, _ = run_cli(capsys, "covers", "", "--dmax", "3")
        assert code == 0
        assert out.splitlines() == ["profile;d;kind;count", ";1;all;1", ";2;all;2", ";3;all;3"]

    def test_requests_under_burnside_cap(self, monkeypatch):
        # Every covers request of the benchmark's CLI mix and of these
        # tests, priced as its top row; the acceptance suites call the
        # library, not the CLI.
        requests = [(argv[1], int(argv[argv.index("--dmax") + 1]))
                    for pool in _bench_cli_pool().values() for argv in pool
                    if argv[0] == "covers" and "--dmax" in argv]
        request = re.compile(r'"covers", "([\d,]+)",[^\n]*?"--dmax", "(\d+)"')
        tested = [(profile, int(d)) for path in sorted(TESTS.glob("test_*.py"))
                  for profile, d in request.findall(path.read_text())]
        assert requests and tested
        for profile, dmax in requests + tested:
            _priced(monkeypatch, [int(m) for m in profile.split(",")], dmax)
        for profile, dmax in OVER_CAP_COVERS:
            with pytest.raises(ResourceCapError):
                _priced(monkeypatch, [int(profile)], dmax)


class TestSimpleTable:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "simple-table", "--nmax", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n;num;den;pi_pow"
        assert lines[1] == "1;0;1;0"
        assert lines[2] == "2;1;270;4"
        assert lines[4] == "4;1;9720;6"

    @pytest.mark.parametrize("argv", [
        ["simple-table", "--nmax", str(OVER_CAP_SIMPLE)],
        ["volume", ",".join(["1"] * OVER_CAP_SIMPLE)],
        ["simple-table", "--nmax", str(64)],  # the first --nmax over the cap
    ])
    def test_simple_work_cap_exit_3_up_front(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("a partition was listed")

        monkeypatch.setattr(stratavol.cumulants, "iter_int_partitions", forbidden)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == "" and "simple-branching work" in err

    def test_requests_under_simple_cap(self):
        # Every simple-table and all-ones volume of the benchmark's CLI
        # mix, every literal --nmax and run of ones in these tests, and
        # the dual-route suite's eight points.
        pool = _bench_cli_pool()
        points = [int(argv[-1]) for argv in pool["simple_table"]]
        points += [len(argv[1].split(",")) for argv in pool["volume"]
                   if set(argv[1].split(",")) == {"1"}]
        request = re.compile(r'"simple-table", "--nmax", "(\d+)"|\["1"\] \* (\d+)|\(1,\) \* (\d+)')
        tested = [int(n) for path in sorted(TESTS.glob("test_*.py"))
                  for match in request.findall(path.read_text()) for n in match if n]
        assert max(points) >= 8 and max(tested) >= 14
        for n in points + tested + [8]:
            check_partition_work((n + 2) // 2, SIMPLE_WORK_CAP, "simple-branching")
        with pytest.raises(ResourceCapError):
            check_partition_work((OVER_CAP_SIMPLE + 2) // 2, SIMPLE_WORK_CAP, "simple-branching")

    def test_empty_request_exit_2(self, capsys):
        for nmax in ("-2", "0"):
            code, out, err = run_cli(capsys, "simple-table", "--nmax", nmax)
            assert code == 2
            assert out == "" and "--nmax" in err


class TestNpointCheck:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "npoint-check", "--s", "2", "--order", "12")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_degenerate_point(self, capsys):
        code, _, err = run_cli(capsys, "npoint-check", "--s", "1", "--order", "5")
        assert code == 2

    def test_fraction_point(self, capsys):
        code, out, _ = run_cli(capsys, "npoint-check", "--s", "5/2", "--order", "10")
        assert code == 0

    def test_work_cap_exits_fast(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a series was computed")

        for name in ("theta_series", "theta_prime_zero", "direct_one_point"):
            monkeypatch.setattr(stratavol.npoint, name, forbidden)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "npoint-check", "--s", "3/2", "--order", str(OVER_CAP_ORDER))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == "" and "one-point work" in err

    def test_requests_under_npoint_cap(self):
        # Every npoint-check of the benchmark's CLI mix and of these tests,
        # and the order of the theorem1 suite and acceptance criterion 8.
        orders = [int(argv[-1]) for argv in _bench_cli_pool()["npoint_check"]]
        request = re.compile(r'"npoint-check",[^\n]*?"--order", "(\d+)"')
        tested = [int(o) for path in sorted(TESTS.glob("test_*.py"))
                  for o in request.findall(path.read_text())]
        assert orders and tested
        for order in orders + tested + [30]:
            check_partition_work(order, NPOINT_WORK_CAP, "one-point")
        with pytest.raises(ResourceCapError):
            check_partition_work(OVER_CAP_ORDER, NPOINT_WORK_CAP, "one-point")


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "expansions")
        assert code == 0
        assert "2/2 properties passed" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "expansions", "--output", "json")
        results = json.loads(out)
        assert all(r["passed"] for r in results)


class TestIntegerLists:
    @pytest.mark.parametrize("argv", [("cconst", "2,,3"), ("volume", "3,,1"), ("cumulant", "2,")])
    def test_empty_token_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "expected comma-separated integers" in err


# One request per subcommand, and its stdout under every setting of
# --output (unset for the default) and --approx that the subcommand
# accepts, as the CLI printed them before unaccepted settings exited 2.
SETTINGS = json.loads((TESTS / "data" / "cli_settings.json").read_text())
OUTPUTS = {
    "volume": ("json", "csv", "plain"),
    "cumulant": ("json", "plain"),
    "cconst": ("json", "plain"),
    "fk": ("plain", "json"),
    "covers": ("csv", "json"),
    "simple-table": ("csv", "json"),
    "npoint-check": ("json", "plain"),
    "verify": ("plain", "json"),
}
APPROX = {"volume", "cumulant", "cconst", "simple-table"}


class TestSettings:
    def test_frozen_outputs_cover_every_accepted_setting(self):
        # 38 accepted settings, of 64, with 22 distinct outputs.
        assert set(SETTINGS["requests"]) == set(OUTPUTS)
        accepted = sum((len(v) + 1) * (2 if k in APPROX else 1) for k, v in OUTPUTS.items())
        assert len(SETTINGS["stdout"]) == accepted == 38
        assert len(set(SETTINGS["stdout"].values())) == 22

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    @pytest.mark.parametrize("output", [None, "json", "csv", "plain"], ids=str)
    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_accepted_exactly_where_implemented(self, capsys, command, output, approx):
        argv = SETTINGS["requests"][command] + (["--output", output] if output else []) \
            + (["--approx"] if approx else [])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        if output in (None, *OUTPUTS[command]) and (not approx or command in APPROX):
            assert code == 0
            assert out == SETTINGS["stdout"][" ".join(argv)]
        else:
            assert code == 2 and out == ""


class TestApproxPrecision:
    def test_caller_precision_kept_and_output_unchanged(self, capsys):
        # ``--approx`` prints 50 digits whatever the caller's decimal
        # precision is, and leaves that precision as it found it.
        prec = getcontext().prec
        assert main(["volume", "3,1", "--approx"]) == 0
        assert getcontext().prec == prec
        capsys.readouterr()
        approx = {k: v for k, v in SETTINGS["stdout"].items() if "--approx" in k.split()}
        assert len(approx) == 13
        for request, stdout in approx.items():
            with localcontext() as ctx:
                ctx.prec = 7
                assert main(request.split()) == 0
                assert getcontext().prec == 7
            assert capsys.readouterr().out == stdout, request


def _outcome(capsys, call, argv):
    """Exit code (or parsed arguments), stdout and stderr of ``call(argv)``."""
    try:
        result = call(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return (vars(result) if isinstance(result, argparse.Namespace) else result,
            captured.out, captured.err)


def _spawn_cli(argv, unbuffered=False, **kwargs):
    """``python -m stratavol.cli argv`` in a fresh process; stdout is
    block-buffered unless ``unbuffered``, so that a lost flush shows."""
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src"), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "stratavol.cli", *argv], env=env,
                          timeout=60, **kwargs)


# A request of each subcommand under each --output, a domain error, a cap
# refusal, the top-level help and an argparse error.
RUN_REQUESTS = [SETTINGS["requests"][command] + ["--output", output]
                for command, outputs in OUTPUTS.items() for output in outputs] + [
    ["volume", "3"], ["covers", OVER_CAP_COVERS[1][0], "--dmax", str(OVER_CAP_COVERS[1][1])],
    ["--help"], ["volume", "2,2", "extra"],
]


class TestRun:
    def test_fresh_process_prints_what_main_prints(self, capsys, monkeypatch):
        # ``run()`` ends the process without the interpreter's teardown, so
        # it must flush what ``main`` wrote; stdout is block-buffered here.
        monkeypatch.setenv("COLUMNS", "80")
        codes = []
        for argv in RUN_REQUESTS:
            proc = _spawn_cli(argv, capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) \
                == _outcome(capsys, main, argv), argv
            codes.append(proc.returncode)
        assert codes[-4:] == [2, 3, 0, 2]
        assert set(codes[:-4]) == {0}

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["volume", "3,1"], ["covers", "2", "--dmax", "300"],
                                      ["--help"], ["volume", "--help"]], ids=" ".join)
    def test_closed_stdout_exits_1_quietly(self, argv, unbuffered):
        # The reader has gone before the first byte: a small payload fails
        # when it is flushed, a large one (or any, unbuffered) when written.
        # Argparse drops a help text whose write fails, so only a buffered
        # one, failing at the flush, shows.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _spawn_cli(argv, unbuffered, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        code = 0 if unbuffered and "--help" in argv else 1
        assert (proc.returncode, proc.stderr) == (code, b"")


# Each subcommand's request, then with the argument that argparse rejects
# or answers by itself appended, or without its arguments.
PARSER_TAILS = {"request": [], "help": ["--help"], "unknown option": ["--bogus"],
                "extra argument": ["extra"], "bad output": ["--output", "xml"]}


class TestOneSubparser:
    @pytest.mark.parametrize("tail", list(PARSER_TAILS) + ["bare"])
    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_same_as_the_full_parser(self, capsys, command, tail):
        # "bare" is the subcommand alone: a missing positional (or --s),
        # and a complete request for simple-table.
        argv = [command] if tail == "bare" else SETTINGS["requests"][command] + PARSER_TAILS[tail]
        one = _outcome(capsys, build_parser(command).parse_args, argv)
        assert one == _outcome(capsys, build_parser().parse_args, argv)
        result, out, err = one
        if tail == "help":
            assert result == 0 and out.startswith(f"usage: stratavol {command}")
        elif tail == "request" or argv == ["simple-table"]:
            assert result["command"] == command
        else:
            assert result == 2 and "error:" in err

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["-h", "volume"], ["--help"]], ids=str)
    def test_main_builds_every_subcommand_without_one(self, capsys, argv):
        assert _outcome(capsys, main, argv) == _outcome(capsys, build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv, error", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=str)
    def test_errors_name_the_command_argument(self, capsys, argv, error):
        code, out, err = _outcome(capsys, main, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: stratavol [-h]") and f"stratavol: error: {error}" in err

    def test_builds_only_the_named_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser("volume").parse_args(["cumulant", "4,2"])
        assert build_parser().parse_args(["cumulant", "4,2"]).command == "cumulant"


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "volume", "3,1", "--approx")
        _, second, _ = run_cli(capsys, "volume", "3,1", "--approx")
        assert first == second

    def test_no_floats_in_payload(self, capsys):
        _, out, _ = run_cli(capsys, "volume", "3,1")
        data = json.loads(out)

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert not isinstance(node, float)

        walk(data)


class TestStartup:
    def test_import_loads_every_module_but_no_dataclasses(self):
        # The benchmark's tracer wraps every module that ``import
        # stratavol.cli`` loads; ``dataclasses`` (with ``inspect``) would
        # double the cost of that import, and ``typing`` adds milliseconds.
        # ``json`` (3 ms) is imported only where a JSON payload is written.
        src = TESTS.parent / "src"
        probe = "import stratavol.cli, sys; print(*sorted(sys.modules))"
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout
        loaded = set(out.split())
        package = {"stratavol"} | {f"stratavol.{path.stem}"
                                   for path in (src / "stratavol").glob("*.py")
                                   if path.stem != "__init__"}
        assert len(package) >= 13
        assert package <= loaded
        assert not loaded & {"dataclasses", "inspect", "typing", "json"}
