"""Property-based fuzz of the command line over all eight subcommands.

Every request either succeeds with output on stdout (exit 0) or fails
cleanly with a usage or domain error (exit 2) or a resource cap (exit 3);
no other exception escapes ``main``, and a malformed positional never
succeeds.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import given, settings
from hypothesis import strategies as st

from stratavol.cli import main

MALFORMED = ["", "a", "1/0", "nan", "2,,2", "-"]

int_lists = st.lists(st.integers(-2, 5), max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
tokens = st.one_of(st.sampled_from(MALFORMED), int_lists)
small_ints = st.one_of(st.integers(-3, 6).map(str), st.sampled_from(MALFORMED))
# Degrees past 38 are over the sweep's Burnside price: each exits 3 at once
# unless the content moments of a profile of short cycles answer it.
degrees = st.one_of(small_ints, st.integers(39, 200).map(str))
# Orders past 44 are over the one-point work cap and must exit 3 at once.
orders = st.one_of(small_ints, st.integers(45, 200).map(str))
points = st.one_of(tokens, st.sampled_from(["5/2", "-7/3", "1/2", "-1"]))
suites = st.sampled_from(MALFORMED + ["worked-example", "qseries", "no-such-suite"])


def _option(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


def _switch(draw, flag):
    return [flag] if draw(st.booleans()) else []


@st.composite
def requests(draw):
    command = draw(st.sampled_from([
        "volume", "cumulant", "cconst", "fk",
        "covers", "simple-table", "npoint-check", "verify",
    ]))
    argv = [command]
    if command in ("volume", "cumulant", "cconst", "covers"):
        argv.append(draw(tokens))
    elif command == "fk":
        argv.append(draw(small_ints))
    elif command == "verify":
        argv.append(draw(suites))
    if command == "volume":
        argv += _switch(draw, "--cross-check")
    elif command == "covers":
        argv += _option(draw, "--dmax", degrees)
        argv += _switch(draw, "--connected") + _switch(draw, "--brute-force")
    elif command == "simple-table":
        argv += _option(draw, "--nmax", small_ints)
    elif command == "npoint-check":
        argv += ["--s", draw(points)] + _option(draw, "--order", orders)
    argv += _option(draw, "--output", st.sampled_from(["json", "csv", "plain"]))
    argv += _switch(draw, "--approx")
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(requests())
def test_cli_exits_cleanly(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert out.getvalue(), argv
    # A malformed positional is never read as some other request; only the
    # empty string is valid, as the empty list.
    if argv[0] not in ("simple-table", "npoint-check") and argv[1] in MALFORMED and argv[1] != "":
        assert code != 0, argv
