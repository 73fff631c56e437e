"""Batch command line interface.

Subcommands wrap the library operations one to one; all numeric output is
exact (fraction strings plus a pi power), with an optional clearly labeled
decimal annotation computed from 50 digits of pi.  Exit codes: 0 success,
1 verification failure, 2 domain error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .coverings import (
    BRUTE_FORCE_WORK_CAP,
    CoverProfile,
    brute_force_hom_count,
    check_brute_force_caps,
    cov_connected_series,
    cov_series,
)
from .cumulants import c_const, c_simple, check_generator_work, elementary_cumulant, volume
from .errors import DomainError, ResourceCapError
from .exact_arith import PiScalar
from .npoint import EvaluatedPoint, verify_theorem1_n1
from .shifted_symmetric import f_top_expansion
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; the empty string is the empty list, and
    an empty token in a nonempty list is an error."""
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"expected a rational like 5/2, got {text!r}") from exc


def _approx_decimal(value: PiScalar) -> str:
    v = value.approx()
    with localcontext() as ctx:  # the caller's precision stays as it was
        ctx.prec = 50
        return str(Decimal(v.numerator) / Decimal(v.denominator))


def _emit(payload: str) -> None:
    sys.stdout.write(payload + "\n")


def _emit_json(data) -> None:
    import json  # about 3 ms of start-up that only JSON output needs

    _emit(json.dumps(data))


def _pi_json(value: PiScalar, approx: bool) -> dict:
    data = value.as_json_dict()
    if approx:
        data["approx"] = _approx_decimal(value)
    return data


def cmd_volume(args) -> int:
    result = volume(_parse_int_list(args.mu), cross_check=args.cross_check)
    if args.output == "json":
        data = result.as_json_dict()
        if args.approx:
            data["volume"]["approx"] = _approx_decimal(result.volume)
        _emit_json(data)
    elif args.output == "csv":
        _emit("mu;genus;dim;route;volume")
        _emit(
            f"{','.join(map(str, result.mu))};{result.genus};{result.dim};"
            f"{result.route};{result.volume}"
        )
    else:
        line = (
            f"volume H({','.join(map(str, result.mu))}) = {result.volume} "
            f"(genus {result.genus}, dim {result.dim}, route {result.route})"
        )
        if args.approx:
            line += f"  [approx {_approx_decimal(result.volume)}]"
        _emit(line)
    return EXIT_OK


def cmd_cumulant(args) -> int:
    m = _parse_int_list(args.m)
    value = elementary_cumulant(m)
    if args.output == "json":
        _emit_json({"m": sorted(m, reverse=True), "value": _pi_json(value, args.approx)})
    else:
        _emit(f"cumulant({args.m}) = {value}")
    return EXIT_OK


def cmd_cconst(args) -> int:
    m = _parse_int_list(args.m)
    value = c_const(m)
    if args.output == "json":
        _emit_json({"m": sorted(m, reverse=True), "c": _pi_json(value, args.approx)})
    else:
        _emit(f"c({args.m}) = {value}")
    return EXIT_OK


def cmd_fk(args) -> int:
    if args.k >= 2:  # refused exactly when ``cconst k`` is, before any expansion
        check_generator_work((args.k,), (1,))
    expansion = f_top_expansion(args.k)
    if args.output == "json":
        terms = [
            {"p": list(lam), "coeff": str(coeff)} for lam, coeff in expansion.terms
        ]
        _emit_json({"k": args.k, "terms": terms})
    else:
        _emit(str(expansion))
    return EXIT_OK


def cmd_covers(args) -> int:
    profile = CoverProfile(_parse_int_list(args.profile))
    dmax = args.dmax
    if dmax < 1:
        raise DomainError(f"--dmax must be >= 1, got {dmax}")
    if args.brute_force:
        check_brute_force_caps(profile, dmax, args.connected)
    # (d, kind, count) rows: the kind is "all" or "connected" for a
    # Burnside count, "brute-all" or "brute-connected" for brute force.
    kind = "connected" if args.connected else "all"
    series = (cov_connected_series if args.connected else cov_series)(profile, dmax)
    rows = [(d, kind, series.coefficient(d)) for d in range(1, dmax + 1)]
    if args.brute_force:
        rows += [(d, "brute-" + kind, brute_force_hom_count(profile, d, args.connected))
                 for d in range(1, dmax + 1)]
    if args.output == "json":
        _emit_json([
            {"profile": list(profile), "d": d, "kind": k, "count": str(count)}
            for d, k, count in rows
        ])
    else:
        _emit("profile;d;kind;count")
        for d, k, count in rows:
            _emit(f"{profile};{d};{k};{count}")
    return EXIT_OK


def cmd_simple_table(args) -> int:
    if args.nmax < 1:
        raise DomainError(f"--nmax must be >= 1, got {args.nmax}")
    # Top row first: c_simple(nmax) checks the work cap of the whole table.
    rows = [(n, c_simple(n)) for n in range(args.nmax, 0, -1)][::-1]
    if args.output == "json":
        _emit_json([
            {"n": n, "c": _pi_json(value, args.approx)} for n, value in rows
        ])
    else:
        _emit("n;num;den;pi_pow")
        for n, value in rows:
            _emit(f"{n};{value.coeff.numerator};{value.coeff.denominator};{value.pi_pow}")
    return EXIT_OK


def cmd_npoint_check(args) -> int:
    point = EvaluatedPoint(_parse_fraction(args.s))
    ok = verify_theorem1_n1(point, args.order)
    if args.output == "json":
        _emit_json({"s": str(point.s), "order": args.order, "verified": ok})
    else:
        _emit(f"one-point identity at s={point.s}, order {args.order}: "
              + ("ok" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    if args.output == "json":
        _emit_json([
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ])
    else:
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            line = f"{status} {r.name}"
            if r.detail and not r.passed:
                line += f"  ({r.detail})"
            _emit(line)
        _emit(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _arg(*flags: str, **options) -> tuple:
    return flags, options


# Each subcommand: its summary and handler, the formats it prints (the first
# by default), whether it takes ``--approx`` (where some format annotates a
# value), and its own arguments.
_SUBCOMMANDS = {
    "volume": ("exact stratum volume", cmd_volume, ("json", "csv", "plain"), True, (
        _arg("mu", help="zero multiplicities, e.g. 3,1"),
        _arg("--cross-check", action="store_true",
             help="run both routes when applicable and compare"),
    )),
    "cumulant": ("elementary cumulant of a key", cmd_cumulant, ("json", "plain"), True, (
        _arg("m", help="key entries, e.g. 4,2"),
    )),
    "cconst": ("leading covering constant c(m)", cmd_cconst, ("json", "plain"), True, (
        _arg("m", help="profile entries (each >= 2), e.g. 4,2"),
    )),
    "fk": ("top-weight power-sum expansion", cmd_fk, ("plain", "json"), False, (
        _arg("k", type=int),
    )),
    "covers": ("covering counts for a profile", cmd_covers, ("csv", "json"), False, (
        _arg("profile", help="branch profile, e.g. 2,2"),
        _arg("--dmax", type=int, default=5),
        _arg("--connected", action="store_true"),
        _arg("--brute-force", action="store_true",
             help="also tabulate the direct enumeration "
             f"(at most {BRUTE_FORCE_WORK_CAP} pairs and tallied tuples in all)"),
    )),
    "simple-table": ("constants for simple branching", cmd_simple_table,
                     ("csv", "json"), True, (
        _arg("--nmax", type=int, default=8),
    )),
    "npoint-check": ("one-point theta identity check", cmd_npoint_check,
                     ("json", "plain"), False, (
        _arg("--s", required=True, help="rational evaluation point, |s| > 1"),
        _arg("--order", type=int, default=30),
    )),
    "verify": ("run a named verification suite", cmd_verify, ("plain", "json"), False, (
        _arg("suite", help="suite name or 'all'"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names
    one: a request pays for building the one it runs.  Usage, help and error
    text are the same either way."""
    parser = argparse.ArgumentParser(
        prog="stratavol",
        description="Exact volumes of strata of holomorphic differentials "
        "and weighted counts of torus coverings.",
    )
    if command in _SUBCOMMANDS:
        # The usage line lists all eight, as the full parser's does.  Only
        # the full parser leaves the metavar unset, so that its errors still
        # name ``argument command``.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        names = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _SUBCOMMANDS
    for name in names:
        summary, fn, outputs, approx, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", choices=outputs, default=outputs[0],
                       help=f"output format (default {outputs[0]})")
        if approx:
            p.add_argument("--approx", action="store_true",
                           help="append a decimal annotation computed from 50 digits of pi")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE


def run() -> None:
    """The ``stratavol`` command: ``main``, then the end of the process once
    stdout and stderr are flushed, without the interpreter's teardown.
    Skipping it loses nothing: the package registers no ``atexit`` handler,
    starts no thread and opens no file.  Argparse's ``SystemExit`` (help,
    usage errors) ends the same way, with its code; any other exception
    takes the normal exit path.  A reader of stdout that has gone away ends
    the request with exit code 1 and nothing on stderr."""
    try:
        try:
            code = main()
        except SystemExit as exit_:
            code = exit_.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
