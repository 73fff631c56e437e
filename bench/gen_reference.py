"""Freeze the exact result of every benchmark item into data/reference.json.

usage: python3 bench/gen_reference.py

Computes every item of the workloads: the 63 strata of ``volume_table``,
the 87 rows and ratios of ``cover_series`` (in this process) and every
request of the ``cli_mix`` populations, of which a pass runs 60 (each in a
fresh ``python -m stratavol.cli``).  Before writing, it checks the results against anchors
that do not come from this library's pipeline:

* 2 * dim * volume equals pi^4/120 for H(2), pi^4/135 for H(1,1),
  61 pi^6/108864 for H(4) and 16 pi^6/42525 for H(3,1) (Eskin-Masur-Zorich);
* c(2,2) = pi^4/270;
* cov_d equals the brute-force monodromy count for d <= 4;
* every valid request exits 0, every invalid one exits 2, and every
  ``verify`` and ``npoint-check`` request passes.

Rerun it only when a change is meant to alter results; the reference
records the commit it was made at.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))

EMZ = {  # 2 * dim * volume as [numerator, denominator, pi power]
    (2,): [1, 120, 4],
    (1, 1): [1, 135, 4],
    (4,): [61, 108864, 6],
    (3, 1): [16, 42525, 6],
}
C_22 = [1, 270, 4]


def library_results() -> dict[str, list]:
    import worker

    items = workloads.volume_items() + workloads.cover_row_items() + workloads.cover_ratio_items()
    report = worker.run_items(items, trace=False)
    return {reference.item_key(i): r for i, r in zip(items, report["results"])}


def cli_results(work) -> dict[str, list]:
    env = run.child_env(work)
    out = {}
    for kind, pool in workloads.cli_pool().items():
        for args in pool:
            proc = run.spawn([sys.executable, "-m", "stratavol.cli"] + args, env, work,
                             run.REQUEST_TIMEOUT_S)
            result = reference.cli_result(args, proc.code, proc.stdout)
            expected_code = 2 if kind == "invalid" else 0
            if proc.code != expected_code:
                raise SystemExit(f"{args}: exit {proc.code}, expected {expected_code}\n"
                                 f"{proc.stderr}")
            if result[1] in (["unparseable"], ["failed"], ["not verified"]):
                raise SystemExit(f"{args}: {result[1][0]}\n{proc.stdout}")
            out[reference.item_key(["cli", args])] = result
        print(f"{kind}: {len(pool)} requests", flush=True)
    return out


def check_anchors(results: dict[str, list]) -> None:
    from stratavol import brute_force_hom_count

    for mu, expected in EMZ.items():
        vol = results[reference.item_key(["volume", list(mu)])][0]
        dim = sum(mu) + 2 + len(mu) - 1  # 2 genus + zeros - 1
        got = Fraction(vol[0], vol[1]) * 2 * dim
        if [got.numerator, got.denominator, vol[2]] != expected:
            raise SystemExit(f"EMZ anchor failed for H{mu}: {got} pi^{vol[2]}")
    if results[reference.item_key(["cli", ["cconst", "2,2"]])][1] != C_22:
        raise SystemExit("anchor c(2,2) = pi^4/270 failed")
    for profile in workloads.COVER_PROFILES:
        for d in range(1, 5):
            brute = reference.fraction(brute_force_hom_count(profile, d))
            if results[reference.item_key(["cov_d", list(profile), d])] != brute:
                raise SystemExit(f"cov_d{profile} at d={d} differs from brute force")
    print("anchors hold", flush=True)


def main() -> int:
    (run.BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.BENCH / ".work"))
    try:
        (work / "cache").mkdir()
        results = library_results()
        results.update(cli_results(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_anchors(results)
    meta = {"commit": run.git_commit(), "python": sys.version.split()[0]}
    with open(reference.REFERENCE_PATH, "w", encoding="ascii") as fh:
        fh.write('{"meta": %s,\n"results": {\n' % json.dumps(meta))
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(results.items())))
        fh.write("\n}}\n")
    print(f"wrote {len(results)} results to {reference.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
