"""Exact canonical forms of benchmark results and the frozen reference.

A result is reduced to exact integers (numerator, denominator, pi power)
before it is compared, never to formatted text: two outputs that print a
value differently but mean the same number compare equal, and any change of
value compares unequal.  ``verify`` and ``npoint-check`` requests are judged
by exit code and by "N/N properties passed" or ``"verified": true``, so a
suite that later gains properties still passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "reference.json"

_PASSED = re.compile(r"^(\d+)/(\d+) properties passed$")


def item_key(item: list) -> str:
    return json.dumps(item, separators=(",", ":"))


def load() -> dict[str, list]:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)["results"]


def fraction(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def pi_scalar(value) -> list[int]:
    """A ``PiScalar`` as [numerator, denominator, pi power]."""
    return [value.coeff.numerator, value.coeff.denominator, value.pi_pow]


def _pi_json(data: dict) -> list[int]:
    value = Fraction(int(data["num"]), int(data["den"]))
    return [value.numerator, value.denominator, int(data["pi_pow"])]


def _csv_rows(stdout: str) -> list[list[str]]:
    lines = stdout.strip().splitlines()
    return [line.split(";") for line in lines[1:]]


def cli_result(argv: list[str], code: int, stdout: str) -> list:
    """[exit code, exact payload] of one CLI request; the payload is None
    when the request failed, and ["unparseable"] when stdout has an
    unexpected shape."""
    if code != 0:
        return [code, None]
    command = argv[0]
    try:
        if command == "volume":
            data = json.loads(stdout)
            payload = [data["mu"], data["genus"], data["dim"], data["route"],
                       _pi_json(data["volume"]), _pi_json(data["c"])]
        elif command == "cumulant":
            payload = _pi_json(json.loads(stdout)["value"])
        elif command == "cconst":
            payload = _pi_json(json.loads(stdout)["c"])
        elif command == "covers":
            payload = [[row[0], int(row[1]), row[2], fraction(Fraction(row[3]))]
                       for row in _csv_rows(stdout)]
        elif command == "simple-table":
            payload = [[int(n), *fraction(Fraction(int(num), int(den))), int(pi)]
                       for n, num, den, pi in _csv_rows(stdout)]
        elif command == "fk":
            payload = [[term["p"], fraction(Fraction(term["coeff"]))]
                       for term in json.loads(stdout)["terms"]]
        elif command == "npoint-check":
            payload = ["verified"] if json.loads(stdout)["verified"] is True else ["not verified"]
        elif command == "verify":
            match = _PASSED.match(stdout.strip().splitlines()[-1])
            payload = ["all passed"] if match and match[1] == match[2] else ["failed"]
        else:
            payload = ["unknown command"]
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
        payload = ["unparseable"]
    return [code, payload]
