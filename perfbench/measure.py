"""Percentiles, tail choice and counter deltas shared by the workloads."""

from __future__ import annotations

import math

#: repro metrics-registry counters read around a measured window
COUNTERS = (
    "lookup.memo.hits", "lookup.memo.misses",
    "tables.memo.plan_hits", "tables.memo.plan_misses",
    "plan_cache.hits", "plan_cache.misses", "plan_cache.invalidations",
    "engine.rows_scanned",
    "serving.result_cache.hits", "serving.result_cache.misses",
    "serving.admission.shed",
)

#: samples a run is expected to have beyond its tail percentile: ten,
#: with a margin so that a run short of its expected count (a Poisson
#: draw, a slower machine) still has ten
MIN_BEYOND = 12.0

#: share of a run's windows, the fastest, that a steady figure (p50,
#: throughput) is taken over
STEADY_SHARE = 0.5

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def counter_values(snapshot: dict) -> dict:
    """Counter values out of a ``MetricsRegistry.to_dict()`` snapshot."""
    return {
        name: snapshot.get(name, {}).get("value", 0) for name in COUNTERS
    }


def counter_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in COUNTERS}


def tail_percentile(expected_samples: float,
                    min_beyond: float = MIN_BEYOND) -> float:
    """The highest percentile with at least ten samples beyond it.

    Chosen from the sample count a run of the fixed length is expected
    to produce (with a margin, ``MIN_BEYOND``, unless the count is
    exact), so every run of a workload reports the same percentile.
    """
    for q in TAIL_PERCENTILES:
        if expected_samples * (100.0 - q) / 100.0 >= min_beyond:
            return q
    return 50.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 50.0)


def steady(windows: list) -> list:
    """The fastest ``STEADY_SHARE`` of *windows* (by mean latency).

    A burst of outside load (other tenants of a shared machine) slows
    the windows it falls in; a change of the program slows every window.
    A stall of the program that hits fewer windows than that is left to
    the ``gc.*`` and per-layer metrics.
    """
    ranked = sorted((w for w in windows if w), key=lambda w: sum(w) / len(w))
    return ranked[:max(1, round(len(ranked) * STEADY_SHARE))]


def steady_median(windows: list) -> float:
    """The median of the samples of the steady windows."""
    return median(sum(steady(windows), []))


def windowed_tail(windows: list, q: float) -> float:
    """Median over the steady windows of each one's q-th percentile.

    Windows are sized so that *q* has ten samples beyond it in each.
    """
    return median([percentile(w, q) for w in steady(windows)])


def window_rates(times: list, start: float, end: float, n: int) -> list:
    """Events per second in each of *n* equal windows of [start, end)."""
    width = (end - start) / n
    return [len(w) / width
            for w in by_time(times, start, end, n, lambda t: t)]


def steady_rate(rates: list) -> float:
    """The mean of the highest ``STEADY_SHARE`` of window *rates*: the
    steady figure of a rate (see :func:`steady`)."""
    best = sorted(rates, reverse=True)[:max(1, round(len(rates)
                                                      * STEADY_SHARE))]
    return sum(best) / len(best)


def chunks(values: list, size: int) -> list:
    """*values* in consecutive lists of *size* (a short rest is dropped)."""
    full = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    return full or [values]


def by_time(items: list, start: float, end: float, n: int, when) -> list:
    """*items* split into *n* equal time windows of [start, end)."""
    width = (end - start) / n
    out: list = [[] for __ in range(n)]
    for item in items:
        index = int((when(item) - start) / width)
        if 0 <= index < n:
            out[index].append(item)
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
