"""Seeded schedules and the summary statistics every workload reports.

Pure functions over numpy arrays, so the rules the benchmark is judged by
(arrival schedule, key popularity, tail percentile) are unit-testable
without booting anything.
"""

from __future__ import annotations

import math

import numpy as np

# A tail percentile is reported only where at least this many samples lie
# beyond it; with fewer, the value is one or two outliers, not a tail.
TAIL_MIN_BEYOND = 10


def poisson_schedule(rate_per_s: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``count`` Poisson arrivals.

    Exponential inter-arrival gaps at ``rate_per_s``; the first request is
    due after one gap, so the offsets are strictly increasing.
    """
    if rate_per_s <= 0 or count <= 0:
        raise ValueError("rate_per_s and count must be positive")
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=count))


def zipf_probabilities(s: float, universe: int) -> np.ndarray:
    """p(rank r) ∝ (r + 1)^-s over ``universe`` ranks, summing to one."""
    if universe <= 0:
        raise ValueError("universe must be positive")
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -s
    return weights / weights.sum()


def zipf_keys(s: float, universe: int, count: int,
              rng: np.random.Generator) -> np.ndarray:
    """``count`` keys in ``[0, universe)`` drawn from a bounded Zipf(s)."""
    cumulative = np.cumsum(zipf_probabilities(s, universe))
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, rng.random(count), side="right")


def nearest_rank(sorted_values: np.ndarray, percentile: float) -> float:
    """The nearest-rank percentile of an ascending array."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    index = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return float(sorted_values[index])


def tail_percentile(count: int, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """The highest whole percentile (50..99) with ``min_beyond`` samples
    beyond its nearest-rank position among ``count`` samples."""
    for percentile in range(99, 49, -1):
        if count - math.ceil(percentile / 100.0 * count) >= min_beyond:
            return percentile
    raise ValueError(f"{count} samples cannot support a tail percentile "
                     f"with {min_beyond} samples beyond it")


def best_slice(values, higher_is_better: bool = False) -> float:
    """The best of the per-slice figures: the lowest, or the highest when
    higher is better.

    On a shared VM, other guests slow the CPU or take it (steal) in
    episodes of seconds to minutes; a slice that falls in one reads up to
    several times slower.  No slice reads much faster than the program
    runs, so the best one stays put while all but one are disturbed, and
    work a change adds still shows in every slice.
    """
    return float(max(values) if higher_is_better else min(values))


def latency_summary(runs, windows: int = 1) -> dict:
    """Latency figures in ms over repeated measurements.

    ``runs`` holds one latency sequence (seconds, completion order) per
    measured process, each cut into ``windows`` consecutive slices.  The
    reported p50 is :func:`best_slice` of the slices' medians; the tail
    is taken over all samples pooled, at :func:`tail_percentile`.
    """
    runs = [np.asarray(run, dtype=np.float64) * 1000.0 for run in runs]
    p50s = [nearest_rank(np.sort(part), 50)
            for run in runs for part in np.array_split(run, windows)]
    pooled = np.sort(np.concatenate(runs))
    tail = tail_percentile(len(pooled))
    return {"samples": int(len(pooled)),
            "p50_ms": best_slice(p50s),
            "slice_p50_ms": p50s,
            "tail_percentile": tail,
            "tail_ms": nearest_rank(pooled, tail)}


def windowed_rates(stamps, start: float, end: float,
                   windows: int) -> np.ndarray:
    """Events per second in each of ``windows`` equal time slices of
    ``[start, end)``."""
    edges = np.linspace(start, end, windows + 1)
    counts = np.histogram(np.asarray(stamps, dtype=np.float64), bins=edges)[0]
    return counts / np.diff(edges)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")
