"""Seeded inputs of the three benchmark workloads.

Every workload is a fixed set of items that the seed only orders, so every
seed does the same work.  The ``cli_mix`` set takes an equal quota of
requests per kind, spread over each kind's cost-sorted population.  The
library never sees the seed, only the items.
Items are plain JSON-serialisable lists so that they can be sent to worker
processes and used as reference keys.
"""

from __future__ import annotations

import random

WORKLOADS = ("volume_table", "cover_series", "cli_mix")

COVER_PROFILES = ((2, 2), (3, 2), (4, 3))
# Degree 28 keeps a pass at 4-7 s, so that a run has enough passes to
# filter out the host's slow phases.
COVER_DMAX = 28


def _int_partitions(n: int, max_part: int | None = None):
    """Partitions of n as descending tuples (kept here so that making the
    inputs calls nothing in the library under test)."""
    top = n if max_part is None else min(n, max_part)
    if n == 0:
        yield ()
        return
    for first in range(top, 0, -1):
        for rest in _int_partitions(n - first, first):
            yield (first,) + rest


def volume_strata() -> list[tuple[int, ...]]:
    """All 40 strata of genus 2-5 and the 23 genus-6 strata with at most
    four zeros.  The other 19 genus-6 strata take 0.2-24 s each; (2,2,2,2,2)
    alone would take half of a pass and leave room for too few passes."""
    strata = [mu for g in range(2, 6) for mu in _int_partitions(2 * g - 2)]
    strata += [mu for mu in _int_partitions(10) if len(mu) <= 4]
    return strata


def volume_items() -> list[list]:
    return [["volume", list(mu)] for mu in volume_strata()]


def cover_row_items() -> list[list]:
    return [["cov_d", list(p), d] for p in COVER_PROFILES for d in range(1, COVER_DMAX + 1)]


def cover_ratio_items() -> list[list]:
    return [["asymptotic_ratio", list(p), COVER_DMAX] for p in COVER_PROFILES]


def _csv(key) -> str:
    return ",".join(map(str, key))


# The CLI request population.  The only invalid inputs are ones that exit 2
# today; inputs whose exit code a planned change alters (for example
# ``covers --dmax -1``, which exits 0 with an empty table) are left out.
CUMULANT_KEYS = (
    (2,), (4,), (6,), (2, 2), (3, 1), (4, 2), (3, 3), (5, 1),
    (2, 2, 2), (3, 2, 1), (4, 2, 2), (3, 3, 2), (2, 2, 2, 2), (3, 1, 1, 1),
    (5, 3), (6, 4),
)
CCONST_KEYS = (
    (2, 2), (3, 3), (4, 2), (3, 2), (2, 2, 2), (4, 4), (5, 3), (3, 3, 2),
    (4, 2, 2), (6, 2), (2, 2, 2, 2), (5, 2),
)
CONNECTED_PROFILES = ((2, 2), (3, 2), (4, 2), (3, 3), (2, 2, 2))
BRUTE_PROFILES = ((2,), (3,), (2, 2), (3, 2), (4, 2), (2, 2, 2))
NPOINT_S = ("3/2", "5/2", "2", "3", "-3/2", "-2", "7/3", "-5/3", "4/3")
# In order of cost, cheapest first.
VERIFY_SUITES = ("worked-example", "expansions", "cumulant-oracles", "qseries")
# Requests per kind and pass.  No usage log exists to weight the kinds by,
# so each of the ten kinds gets the same share; the invalid requests are
# then 10% of the mix.
CLI_QUOTA = 6
INVALID_REQUESTS = (
    ["volume", "3"],
    ["cconst", "1,2"],
    ["covers", "1"],
    ["npoint-check", "--s", "1/2"],
)


def cli_pool() -> dict[str, list[list[str]]]:
    """kind -> population, the requests ``gen_reference.py`` freezes.
    Each population is sorted by a proxy of its cost (degree, order,
    genus, key size), so that ``_spread`` takes cheap and dear requests
    alike."""
    strata = sorted((mu for mu in volume_strata() if sum(mu) <= 8),
                    key=lambda mu: (sum(mu) + len(mu), len(mu)))
    by_size = lambda key: (len(key), sum(key))  # noqa: E731
    return {
        "volume": [["volume", _csv(mu)] for mu in strata],
        "cumulant": [["cumulant", _csv(k)] for k in sorted(CUMULANT_KEYS, key=by_size)],
        "cconst": [["cconst", _csv(k)] for k in sorted(CCONST_KEYS, key=by_size)],
        "covers_connected": [
            ["covers", _csv(p), "--connected", "--dmax", str(d)]
            for d in range(8, 19) for p in CONNECTED_PROFILES
        ],
        "covers_brute": [
            ["covers", _csv(p), "--brute-force", "--dmax", "4"] + extra
            for extra in ([], ["--connected"]) for p in BRUTE_PROFILES
        ],
        "simple_table": [["simple-table", "--nmax", str(n)] for n in range(1, 13)],
        "fk": [["fk", str(k), "--output", "json"] for k in range(2, 11)],
        "npoint_check": [
            ["npoint-check", f"--s={s}", "--order", str(order)]
            for order in range(15, 26) for s in NPOINT_S
        ],
        "verify": [["verify", suite] for suite in VERIFY_SUITES],
        "invalid": [list(r) for r in INVALID_REQUESTS],
    }


def _spread(pool: list, k: int) -> list:
    """k items of a cost-sorted pool: k // len(pool) whole copies of it,
    then the middle item of each of k % len(pool) contiguous, nearly equal
    slices of it."""
    copies, rest = divmod(k, len(pool))
    middles = [(2 * i + 1) * len(pool) // (2 * rest) for i in range(rest)]
    return list(pool) * copies + [pool[i] for i in middles]


def cli_requests() -> list[list[str]]:
    """The 60 requests of a ``cli_mix`` pass, CLI_QUOTA of each kind."""
    return [argv for pool in cli_pool().values() for argv in _spread(pool, CLI_QUOTA)]


def make_items(workload: str, seed: int) -> list[list]:
    """The item list of one workload for one seed, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "volume_table":
        items = volume_items()
        rng.shuffle(items)
        return items
    if workload == "cover_series":
        # The seed orders the degrees; within a degree the profiles keep the
        # order of COVER_PROFILES, so (2,2) always meets m = 2 characters
        # cold, (3,2) meets them warm and m = 3 cold, and (4,3) meets m = 3
        # warm: every row costs the same for every seed, and item
        # percentiles compare across seeds.
        degrees = list(range(1, COVER_DMAX + 1))
        rng.shuffle(degrees)
        ratios = cover_ratio_items()
        rng.shuffle(ratios)
        return [["cov_d", list(p), d] for d in degrees for p in COVER_PROFILES] + ratios
    if workload == "cli_mix":
        items = [["cli", argv] for argv in cli_requests()]
        rng.shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
