"""The names that files outside the library import from the package, and
the integer arguments its entry points take."""

import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import stratavol
from stratavol import npoint, shifted_symmetric
from stratavol.coverings import cov_prime_series, cov_series
from stratavol.errors import DomainError
from stratavol.exact_arith import PiScalar
from stratavol.qseries import QSeries, euler_series

ROOT = Path(__file__).resolve().parent.parent
# The README example, the benchmark's worker and reference generator, and
# the CI caps step.
CALLERS = ("README.md", "bench/worker.py", "bench/gen_reference.py", ".github/workflows/tests.yml")


def _imported_names(path: str) -> set[str]:
    text = (ROOT / path).read_text()
    return {name.strip() for names in re.findall(r"from stratavol import ([\w, ]+)", text)
            for name in names.split(",")}


def test_outside_callers_find_their_names():
    wanted = {"character_cache"}  # read by the benchmark's tracer
    for path in CALLERS:
        names = _imported_names(path)
        assert names, f"{path} imports nothing from stratavol"
        wanted |= names
    assert {"volume", "c_const", "elementary_cumulant", "asymptotic_ratio", "cov_d",
            "brute_force_hom_count", "ResourceCapError"} <= wanted
    for name in sorted(wanted):
        exec(f"from stratavol import {name}", {})
    assert wanted <= set(stratavol.__all__)


def test_all_lists_what_the_package_binds():
    bound = {name for name, value in vars(stratavol).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(stratavol.__all__) == sorted(bound)


# Entry points whose degree, order or index is an integer, with integral
# arguments and the position of the one read through ``errors.as_int``.
_INTEGER_ARGUMENTS = [
    (cov_series, ((2, 2), 4), 1),
    (cov_prime_series, ((2, 2), 4), 1),
    (stratavol.cov_connected_series, ((2, 2), 4), 1),
    (stratavol.asymptotic_ratio, ((2, 2), 6), 1),
    (stratavol.brute_force_hom_count, ((2,), 3), 1),
    (stratavol.c_simple, (4,), 0),
    (stratavol.verify_theorem1_n1, (2, 5), 1),
    (npoint.theta_series, (2, 1, 5), 1),
    (npoint.theta_series, (2, 1, 5), 2),
    (npoint.direct_one_point, (2, 5), 1),
    (euler_series, (4,), 0),
    (QSeries.zero, (4,), 0),
    (QSeries.one, (4,), 0),
    (stratavol.f_top_expansion, (4,), 0),
    (euler_series(4).coefficient, (2,), 0),
    (shifted_symmetric.q_average, ((1,), 4), 1),
    (shifted_symmetric.p_eval, (2, (1,)), 0),
    (PiScalar, (Fraction(1), 2), 1),
]


@pytest.mark.parametrize("call, args, at", _INTEGER_ARGUMENTS,
                         ids=[f"{call.__name__}-{at}" for call, _, at in _INTEGER_ARGUMENTS])
def test_integer_arguments_read_as_integers(call, args, at):
    # An integral float acts as its integer; any other value is a
    # DomainError before any work, never a TypeError from inside.
    def at_value(value):
        return args[:at] + (value,) + args[at + 1:]

    assert call(*at_value(float(args[at]))) == call(*args)
    with pytest.raises(DomainError, match="expected an integer"):
        call(*at_value(args[at] + 0.5))
