"""Estimators the benchmark reports, with the sample-count rule built in.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it: p90 needs 100 samples, p99 would need 1,000. Asking for
more than the sample supports raises instead of returning a number that
is really the maximum in disguise.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def median(samples) -> float:
    samples = list(samples)
    if not samples:
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(samples))


def quiet_median(samples, share: float = 0.25, fastest: bool = True) -> float:
    """Median of the fastest ``share`` of the samples.

    Interference from the host only ever adds time, and on the 2-core
    sandbox it comes in stretches of seconds to minutes during which
    everything runs 10-50 % slower (round medians of one unchanged
    request drift that much *inside one run*). Plain medians of identical
    runs then differed by 10-35 %, medians of the faster half by 10-30 %,
    of the fastest quarter by 5-20 %: the fastest quarter is the most of
    the sample that is reliably taken on a quiet machine.
    ``fastest=False`` takes the upper end instead, for rates.
    """
    ordered = sorted(samples)
    if not ordered:
        raise TooFewSamples("median of an empty sample")
    keep = math.ceil(len(ordered) * share)
    return median(ordered[:keep] if fastest else ordered[-keep:])


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q`` quantile (0 < q < 1), linear interpolation between ranks.

    Refuses when fewer than ``min_beyond`` samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be strictly between 0 and 1, got {q}")
    beyond = math.floor(n * (1.0 - q) + 1e-9)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"need {min_beyond}"
        )
    rank = q * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0
