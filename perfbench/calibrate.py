"""Machine speed, measured with a fixed piece of pure-Python work.

The 2-core container the benchmark was defined on has spells, often a minute
or longer, in which all work runs up to twice as slow; every run of the
benchmark's own tuning saw them. So each timing is taken next to
`loop_seconds()`, measured in the same process just before, and reported by
`scaled()` as wall seconds at the machine's calm speed. The raw wall
seconds are kept in the results file.
"""

from __future__ import annotations

import time
from fractions import Fraction

# loop_seconds() on the defining container in a calm spell
REFERENCE_S = 0.0044


def _loop():
    acc = [0] * 16
    for i in range(2500):
        a = i % 97
        for j in range(16):
            acc[j] = (acc[j] + a * j) % 101
    f = Fraction(1)
    for i in range(1, 200):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    return acc, f


def loop_seconds(repeats: int = 3) -> float:
    """Lowest wall time of `repeats` runs of the fixed loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, loop_s: float) -> float:
    """Wall seconds at the calm speed: seconds * REFERENCE_S / loop_s."""
    return seconds * REFERENCE_S / loop_s
