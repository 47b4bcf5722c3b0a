"""Percentiles with a sample-count guard, and the host drift probe."""

from __future__ import annotations

import math
import statistics
import time

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_BEYOND` samples lie beyond the chosen rank; the median
    needs the same.
    """
    xs = sorted(values)
    rank = max(1, math.ceil(len(xs) * q))
    if len(xs) - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(xs)} samples has {len(xs) - rank} "
            f"beyond it; need {MIN_BEYOND}")
    return xs[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def calib_ms(rounds: int = 5) -> float:
    """Median wall time of a fixed big-integer multiply loop that does
    not touch the repository: a machine-speed probe taken at the start
    and end of every run, recorded only, never used to normalize."""
    a = (1 << 40_000) // 7
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        x = a
        for _ in range(40):
            x = (x * a) >> 40_000
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)
