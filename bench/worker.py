"""Runs in-process benchmark items in one fresh interpreter.

usage: python3 bench/worker.py [--trace] < items.json > report.json

Reads a JSON list of items (see ``workloads.py``) on stdin, times each
call into the library, and writes one JSON report on stdout: exact results,
per-item seconds, the calibration kernel's timings before each item and after
the last (see ``calibrate.py``) and, with ``--trace``, the tracer's summary.
``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import reference
from calibrate import time_kernel


def _run(item: list):
    from stratavol import asymptotic_ratio, cov_d, volume

    kind = item[0]
    if kind == "volume":
        return volume(tuple(item[1]))
    if kind == "cov_d":
        return cov_d(tuple(item[1]), item[2])
    if kind == "asymptotic_ratio":
        return asymptotic_ratio(tuple(item[1]), item[2])
    raise ValueError(f"unknown item kind {kind!r}")


def exact(item: list, value) -> list:
    if item[0] == "volume":
        return [reference.pi_scalar(value.volume), reference.pi_scalar(value.c_const)]
    return reference.fraction(value)


def run_items(items: list[list], trace: bool) -> dict:
    """Run the items in this process and return the report."""
    t0 = perf_counter()
    import stratavol.cli  # noqa: F401  (imports every library module)
    import_s = perf_counter() - t0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    values, seconds, kernel_s = [], [], []
    try:
        for item in items:
            kernel_s.append(time_kernel())
            a = perf_counter()
            values.append(_run(item))
            seconds.append(perf_counter() - a)
        kernel_s.append(time_kernel())
    finally:
        if tracer is not None:
            missed = tracer.unwrapped_bindings()
            tracer.uninstall()
    report = {
        "results": [exact(item, v) for item, v in zip(items, values)],
        "item_s": seconds,
        "kernel_s": kernel_s,
    }
    if tracer is not None:
        from tracing import cache_entries

        report["trace"] = tracer.summary()
        report["trace"]["cache_entries"] = cache_entries()
        report["trace"]["import_s"] = import_s
        report["trace"]["missed_bindings"] = missed
    return report


def main() -> int:
    items = json.load(sys.stdin)
    json.dump(run_items(items, "--trace" in sys.argv[1:]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
