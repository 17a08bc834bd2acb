"""Summary statistics shared by the workloads: percentiles and the SLO ladder."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 66.0, 50.0)
#: Arrival-rate multiples tried for ``serve``'s ``slo_rate_qps``: 2^(k/16) from 1/16 to 64.
SLO_LADDER = tuple(2.0 ** (k / 16.0) for k in range(-64, 97))
#: Percentile whose latency must stay under the workload's limit.
SLO_PERCENTILE = 90.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in [0, 100].

    Nearest rank makes a list repeated ``k`` times give the same value as
    the list itself, so a run of identical rounds reports its virtual tail
    exactly as one round does.
    """
    if not values:
        raise ValueError("percentile of an empty list")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples above it."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= 1000.0:
            return q
    raise ValueError(f"{n} samples are too few for a tail percentile")


def median(values: list[float]) -> float:
    return statistics.median(values)


def highest_passing(ladder: tuple[float, ...], passes) -> float | None:
    """Highest ladder value for which ``passes`` holds, by bisection.

    Assumes ``passes`` is monotone (true up to some rung, false above it);
    returns None when even the lowest rung fails.
    """
    lo, hi = 0, len(ladder) - 1
    if not passes(ladder[lo]):
        return None
    if passes(ladder[hi]):
        return ladder[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(ladder[mid]):
            lo = mid
        else:
            hi = mid
    return ladder[lo]
