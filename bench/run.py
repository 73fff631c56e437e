"""The stratavol benchmark.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is ``volume_table``, ``cover_series``, ``cli_mix`` or ``all`` (the
three in turn).  Run it from any directory; it works on the checkout that
contains it, builds nothing and writes only under ``bench/.work``.

One client, closed loop: the run.py process runs one worker at a time
and starts the next item only when the previous one has finished.  Every
pass over the item list starts a fresh interpreter, so process-wide caches
start cold; ``STRATAVOL_CACHE`` points at an empty temporary directory and
neither ``--use-cache`` nor ``--threads`` is used.

With ``--trace 0`` the run makes a fixed number of passes per workload
(``pass_count``), times a few interpreter set-ups before each pass, and
reports the end-to-end metrics (see ``end_to_end``), every timing scaled to
a reference speed of the host (see ``calibrate.py``).  With ``--trace 1`` it
makes one untimed pass and one traced pass over the same items and reports
per-layer metrics.
Every result is compared exactly with ``bench/data/reference.json``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 (and no result)
when the checkout lacks the library or the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Seconds budgeted for one pass, its set-up spawns and its calibration: a
# slow pass at the commit the reference was frozen at, on the reference
# machine, so that a run seldom takes longer than --seconds.  A run makes
# --seconds // PASS_SECONDS passes, however fast the program under test is,
# so a parent and a change take the median of the same number of samples.
PASS_SECONDS = {"volume_table": 6.5, "cover_series": 7.5, "cli_mix": 9.5}
SETUP_SPAWNS_PER_PASS = 5
TAIL_BEYOND = 10
REQUEST_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

SETUP_CODE = (
    "import sys, time\n"
    "import stratavol.cli\n"
    "sys.stdout.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


# -- processes ---------------------------------------------------------------


@dataclass
class Spawned:
    code: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_mib: float
    started: float


def spawn(argv: list[str], env: dict, work: Path, timeout: float,
          stdin: bytes | None = None) -> Spawned:
    """Run argv to completion.  Reaps the child with ``wait4`` to read its
    own peak RSS; a watchdog kills it after ``timeout`` seconds."""
    with tempfile.TemporaryFile(dir=work) as err:
        started = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        return Spawned(proc.returncode, out.decode(errors="replace"),
                       err.read().decode(errors="replace"), seconds,
                       usage.ru_maxrss / 1024, started)


def child_env(work: Path) -> dict:
    """The caller's environment with ``src`` first on the import path, an
    empty character-table cache directory, and a bytecode cache under
    ``work``, so that every process after the first imports from bytecode
    whatever PYTHONDONTWRITEBYTECODE says and nothing is written to ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["STRATAVOL_CACHE"] = str(work / "cache")
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env: dict, work: Path, spawns: int) -> list[float]:
    """Seconds from spawning an interpreter until ``import stratavol.cli``
    returns, once per spawn, at the reference speed."""
    samples, kernel_s = [], []
    for _ in range(spawns):
        kernel_s.append(calibrate.time_kernel())
        run = spawn([sys.executable, "-c", SETUP_CODE], env, work, REQUEST_TIMEOUT_S)
        if run.code != 0:
            raise RuntimeError(f"set-up spawn failed: {run.stderr.strip()}")
        # perf_counter and CLOCK_MONOTONIC are the same clock on Linux.
        samples.append(float(run.stdout) - run.started)
    kernel_s.append(calibrate.time_kernel())
    return calibrate.scaled(samples, kernel_s)


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    ok: bool  # False when the worker process failed: no timings, no results
    item_s: list[float]  # at the reference speed (see calibrate.py)
    results: list
    peak_rss_mib: float
    traces: list[dict]

    @property
    def wall_s(self) -> float:
        """Time spent in the items, without the calibration between them."""
        return sum(self.item_s)


def run_pass(items: list[list], env: dict, work: Path, trace: bool) -> Pass:
    if items[0][0] == "cli":
        return _cli_pass(items, env, work, trace)
    argv = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if trace else [])
    run = spawn(argv, env, work, WORKER_TIMEOUT_S, stdin=json.dumps(items).encode())
    if run.code != 0:
        sys.stderr.write(f"worker failed with exit code {run.code}:\n{run.stderr}\n")
        return Pass(False, [], [None] * len(items), run.peak_rss_mib, [])
    report = json.loads(run.stdout)
    traces = [report["trace"]] if trace else []
    return Pass(True, calibrate.scaled(report["item_s"], report["kernel_s"]),
                report["results"], run.peak_rss_mib, traces)


def _cli_pass(items: list[list], env: dict, work: Path, trace: bool) -> Pass:
    runs, traces = [], []
    trace_out = work / "trace.json"
    kernel_s = []
    for _, args in items:
        kernel_s.append(calibrate.time_kernel())
        if trace:
            argv = [sys.executable, str(BENCH / "launcher.py"), str(trace_out)] + args
        else:
            argv = [sys.executable, "-m", "stratavol.cli"] + args
        runs.append(spawn(argv, env, work, REQUEST_TIMEOUT_S))
        if trace and trace_out.is_file():
            with open(trace_out, encoding="ascii") as fh:
                traces.append(json.load(fh))
            trace_out.unlink()
    kernel_s.append(calibrate.time_kernel())
    results = [reference.cli_result(args, r.code, r.stdout) for (_, args), r in zip(items, runs)]
    item_s = calibrate.scaled([r.seconds for r in runs], kernel_s)
    return Pass(True, item_s, results, max(r.peak_rss_mib for r in runs), traces)


# -- metrics -----------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the highest of n items with at least
    TAIL_BEYOND items beyond it; the maximum when there are too few."""
    return max(n - TAIL_BEYOND - 1, 0)


def tail_percentile(n: int) -> float:
    return 100.0 * (tail_rank(n) + 1) / n


def pass_count(workload: str, seconds: int) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def count_failures(items: list[list], passes: list[Pass], ref: dict) -> int:
    failed = 0
    for p in passes:
        for item, result in zip(items, p.results):
            if result is None or ref.get(reference.item_key(item)) != result:
                failed += 1
    return failed


def end_to_end(passes: list[Pass]) -> dict:
    """Timings over the passes that succeeded, all in seconds at the
    reference speed (see ``calibrate.py``).  ``wall_s`` is the median over
    passes of the time spent in the items; an item's time is its median
    over passes, and the percentiles are taken over items.
    ``peak_rss_mib`` is the median over passes."""
    item_s = sorted(statistics.median(times) for times in zip(*(p.item_s for p in passes)))
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "item_p50_s": (statistics.median(item_s), "s"),
        "item_tail_s": (item_s[tail_rank(len(item_s))], "s"),
        "peak_rss_mib": (statistics.median(p.peak_rss_mib for p in passes), "MiB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Pass, untraced: Pass) -> dict:
    """Per-layer metrics from the traced pass.  For ``cli_mix`` the counts
    and seconds are sums over requests, ``characters.cache.entries`` is the
    sum of each request's final cache size, and ``cli.import_s`` is the
    median over requests."""
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_s: dict[str, float] = {}
    keys: set[tuple[int, ...]] = set()
    for t in traced.traces:
        for src, dst in ((t["calls"], calls), (t["counters"], counters),
                         (t["self_s"], self_s), (t["layer_self_s"], layer_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        keys.update(tuple(k) for k in t["cumulant_keys"])
    entries = sum(t["cache_entries"] for t in traced.traces)
    import_s = statistics.median(t["import_s"] for t in traced.traces) if traced.traces else 0.0

    ec_calls = calls.get("cumulants.elementary_cumulant", 0)
    candidates = counters.get("partitions.iter_set_partitions_with_blocks.yielded", 0)
    returned = counters.get("partitions.enum_complementary.returned", 0)
    gets = calls.get("characters.cache.get", 0)
    c, s = "count", "s"
    return {
        "exact_arith.frak_z.calls": (calls.get("exact_arith.frak_z", 0), c),
        "exact_arith.bernoulli.calls": (calls.get("exact_arith.bernoulli", 0), c),
        "exact_arith.PiScalar.ops": (calls.get("exact_arith.PiScalar.ops", 0), c),
        "partitions.set_partitions_of.yielded":
            (counters.get("partitions.set_partitions_of.yielded", 0), c),
        "partitions.enum_complementary.candidates": (candidates, c),
        "partitions.enum_complementary.returned": (returned, c),
        "partitions.enum_complementary.useful_ratio": (_ratio(returned, candidates), "ratio"),
        "partitions.iter_int_partitions.yielded":
            (counters.get("partitions.iter_int_partitions.yielded", 0), c),
        "partitions.self_s": (layer_s.get("partitions", 0.0), s),
        "characters.central_char_f.calls": (calls.get("characters.central_char_f", 0), c),
        "characters.cache.gets": (gets, c),
        "characters.cache.hit_ratio":
            (_ratio(counters.get("characters.cache.get.hits", 0), gets), "ratio"),
        "characters.cache.entries": (entries, c),
        "characters.dimension.calls": (calls.get("characters.dimension", 0), c),
        "characters.self_s": (layer_s.get("characters", 0.0), s),
        "coverings.cov_d.calls": (calls.get("coverings.cov_d", 0), c),
        "coverings.cov_d.self_s": (self_s.get("coverings.cov_d", 0.0), s),
        "coverings.cov_connected_series.self_s":
            (self_s.get("coverings.cov_connected_series", 0.0), s),
        "coverings.brute_force_hom_count.self_s":
            (self_s.get("coverings.brute_force_hom_count", 0.0), s),
        "coverings.self_s": (layer_s.get("coverings", 0.0), s),
        "qseries.QSeries.mul.calls": (calls.get("qseries.QSeries.mul", 0), c),
        "qseries.self_s": (layer_s.get("qseries", 0.0), s),
        "shifted_symmetric.f_top_expansion.calls":
            (calls.get("shifted_symmetric.f_top_expansion", 0), c),
        "shifted_symmetric.q_average.self_s":
            (self_s.get("shifted_symmetric.q_average", 0.0), s),
        "cumulants.elementary_cumulant.calls": (ec_calls, c),
        "cumulants.elementary_cumulant.distinct_keys": (len(keys), c),
        "cumulants.elementary_cumulant.repeat_share":
            (_ratio(ec_calls - len(keys), ec_calls), "ratio"),
        "cumulants.elementary_cumulant.self_s":
            (self_s.get("cumulants.elementary_cumulant", 0.0), s),
        "cumulants.wick_leading.calls": (calls.get("cumulants.wick_leading", 0), c),
        "cumulants.wick_leading.self_s": (self_s.get("cumulants.wick_leading", 0.0), s),
        "cumulants.c_simple.self_s": (self_s.get("cumulants.c_simple", 0.0), s),
        "cumulants.volume.self_s": (self_s.get("cumulants.volume", 0.0), s),
        "cumulants.self_s": (layer_s.get("cumulants", 0.0), s),
        "npoint.direct_one_point.self_s": (self_s.get("npoint.direct_one_point", 0.0), s),
        "npoint.theta_series.self_s": (self_s.get("npoint.theta_series", 0.0), s),
        "verify.run_suite.self_s": (self_s.get("verify.run_suite", 0.0), s),
        "cli.import_s": (import_s, s),
        "cli.main.self_s": (self_s.get("cli.main", 0.0), s),
        "trace.overhead_ratio": (_ratio(traced.wall_s - untraced.wall_s, untraced.wall_s), "ratio"),
    }


# -- run ---------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "commit": git_commit(), "src_lines": src_lines,
    }


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:45s} {value:>14.6g} {unit}", flush=True)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 ref: dict, work: Path, setup: list[float]) -> tuple[dict, int, int]:
    """Run one workload.  A timed run appends its set-up samples to
    ``setup``.  When the worker fails, the run stops and reports no
    metrics of the workload, only the failure."""
    print("meta " + json.dumps(metadata(workload, seed, seconds, trace)), flush=True)
    env = child_env(work)
    items = workloads.make_items(workload, seed)
    metrics: dict = {}
    if trace:
        untraced = run_pass(items, env, work, trace=False)
        traced = run_pass(items, env, work, trace=True)
        passes = [untraced, traced]
        if untraced.ok and traced.ok:
            metrics = per_layer(traced, untraced)
        missed = sorted({m for t in traced.traces for m in t["missed_bindings"]})
        if missed:
            sys.stderr.write(f"bindings left unwrapped: {missed}\n")
        gone = sorted({m for t in traced.traces for m in t["missing_targets"]})
        if gone:
            sys.stderr.write(f"trace targets absent from the package (reported as 0): {gone}\n")
        print(f"{workload}: seed {seed}, {len(items)} items, 2 passes (untraced, traced)")
    else:
        passes = []
        for _ in range(pass_count(workload, seconds)):
            # Set-up samples between passes see the same phases of the
            # host as the passes do.
            setup += measure_setup(env, work, SETUP_SPAWNS_PER_PASS)
            passes.append(run_pass(items, env, work, trace=False))
            if not passes[-1].ok:
                break
        if all(p.ok for p in passes):
            metrics = end_to_end(passes)
        print(f"{workload}: seed {seed}, {len(items)} items, {len(passes)} pass(es)"
              f" (fixed for --seconds {seconds}), tail = p{tail_percentile(len(items)):.1f}"
              f" of {len(items)} items")
    attempted = len(items) * len(passes)
    failed = count_failures(items, passes, ref)
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    print(f"  {'failed_share':45s} {_ratio(failed, attempted):>14.6g} ratio"
          f"  ({failed} of {attempted} item runs)", flush=True)
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stratavol" / "__init__.py").is_file():
        sys.stderr.write(f"no library at {SRC / 'stratavol'}; run from a full checkout\n")
        return 2
    if not reference.REFERENCE_PATH.is_file():
        sys.stderr.write(f"missing reference data {reference.REFERENCE_PATH}\n")
        return 2
    ref = reference.load()

    # On SIGTERM, unwind through the finally blocks: they kill and reap the
    # running child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        (work / "cache").mkdir()
        metrics, attempted, failed = {}, 0, 0
        setup: list[float] = []
        if not args.trace:
            # One untimed spawn fills the bytecode cache.
            measure_setup(child_env(work), work, 1)
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   ref, work, setup)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
        if setup:
            metrics["setup_s"] = (statistics.median(setup), "s")
            print(f"set-up: median of {len(setup)} spawns, at the reference speed")
            print_metric("setup_s", *metrics["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
