"""A fixed pure-Python kernel that measures how fast the host runs now.

A shared host's speed swings by a factor of 1.5 or more from one second
to the next, and all code slows together.  The benchmark times this
kernel before every item it times and after the last, and scales each
item's time by ``REFERENCE_S`` over the kernel timings next to it (see
``scaled``): the result reads in seconds at the reference speed, so a
change of the host's speed cancels out while a change of the program's
own cost does not.  The kernel calls nothing in the library under test.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the reference machine (Intel Xeon, 2 vCPU, shared
# host, Python 3.11).  It only sets the scale of the reported seconds, so
# that they read close to the raw seconds there; it is the same for every
# commit measured.
REFERENCE_S = 0.0063


def kernel() -> int:
    """Exact rational sums, big-integer products, tuple keys and a dict
    of a few thousand entries: the kinds of work the library does."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 400):
        acc += Fraction(i % 5 + 1, i * i + 1)
        table[(i, acc.denominator % 1009)] = acc.numerator & 0xFFFF
    x = 1
    for i in range(1, 6000):
        x = (x * 7919 + i) % (1 << 256)
        table[(x & 0xFFF, i)] = i
    return len(table) + sum(table.values()) % 97


def time_kernel() -> float:
    a = perf_counter()
    kernel()
    return perf_counter() - a


def scaled(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Scale timings to the reference speed.  ``seconds[i]`` was measured
    between the kernel timings ``kernel_s[i]`` and ``kernel_s[i + 1]``, and
    is scaled by the median of the (up to) four kernel timings nearest to
    it, two before and two after: the host's speed holds for about a
    second, and one kernel timing can be disturbed on its own."""
    if len(kernel_s) != len(seconds) + 1:
        raise ValueError("need one kernel timing before each timing and one after the last")
    return [t * REFERENCE_S / statistics.median(kernel_s[max(0, i - 1):i + 3])
            for i, t in enumerate(seconds)]
