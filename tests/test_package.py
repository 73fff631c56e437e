"""The names that files outside the library import from the package."""

import re
import types
from pathlib import Path

import stratavol

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
