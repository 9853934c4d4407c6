"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest candidate percentile that has at least
    MIN_BEYOND samples above its nearest-rank position, or None when even
    the lowest candidate has too few samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 6))  # 99.9% of 1e4 is 9990
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def describe(samples: list[float]) -> dict:
    """Sample count, median and the tail percentile the count supports."""
    out: dict = {"n": len(samples)}
    if samples:
        out["median"] = statistics.median(samples)
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out
