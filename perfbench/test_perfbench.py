"""Tests for the benchmark's own logic (not for the program it measures)."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, stats

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_poisson_schedule_is_seeded_and_has_the_rate():
    first = stats.poisson_schedule(50.0, 20000, np.random.default_rng(7))
    again = stats.poisson_schedule(50.0, 20000, np.random.default_rng(7))
    other = stats.poisson_schedule(50.0, 20000, np.random.default_rng(8))
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first, other)
    gaps = np.diff(np.concatenate([[0.0], first]))
    assert np.all(gaps > 0)
    assert np.mean(gaps) == pytest.approx(1 / 50.0, rel=0.03)
    # Exponential gaps: the standard deviation equals the mean.
    assert np.std(gaps) == pytest.approx(1 / 50.0, rel=0.05)


def test_zipf_keys_are_seeded_and_follow_the_law():
    universe, count = 1024, 400_000
    keys = stats.zipf_keys(1.0, universe, count, np.random.default_rng(3))
    np.testing.assert_array_equal(
        keys, stats.zipf_keys(1.0, universe, count, np.random.default_rng(3)))
    assert keys.min() >= 0 and keys.max() < universe
    expected = stats.zipf_probabilities(1.0, universe)
    observed = np.bincount(keys, minlength=universe) / count
    # Rank r is drawn with p ∝ 1/(r+1): check the head key by key and
    # the mass of the tail as a whole.
    np.testing.assert_allclose(observed[:10], expected[:10], rtol=0.05)
    assert observed[512:].sum() == pytest.approx(expected[512:].sum(),
                                                 rel=0.05)
    assert expected[0] / expected[1] == pytest.approx(2.0)


@pytest.mark.parametrize("count", [20, 21, 50, 99, 100, 101, 500, 999, 1000,
                                   1009, 5000])
def test_tail_percentile_is_highest_with_ten_beyond(count):
    percentile = stats.tail_percentile(count)

    def beyond(p):
        return count - math.ceil(p / 100 * count)

    assert beyond(percentile) >= 10
    assert percentile == 99 or beyond(percentile + 1) < 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_latency_summary_takes_the_best_slice():
    runs = [np.arange(101, 201) / 1000.0, np.arange(1, 101) / 1000.0]
    summary = stats.latency_summary(runs, windows=2)
    assert summary["samples"] == 200
    # Slice medians are 125, 175, 25 and 75 ms; the reported p50 is the
    # lowest of them.
    assert summary["slice_p50_ms"] == [125.0, 175.0, 25.0, 75.0]
    assert summary["p50_ms"] == 25.0
    assert stats.best_slice([125.0, 175.0, 25.0, 75.0],
                            higher_is_better=True) == 175.0
    # Pooled tail: 200 samples support p95 (10 beyond), which is 190 ms.
    assert summary["tail_percentile"] == 95
    assert summary["tail_ms"] == pytest.approx(190.0)


def test_step_slices_time_each_batch_by_the_interval_before_its_step():
    from perfbench import trainjob

    # Two epochs of five steps; the last batch of an epoch holds 2 rows.
    stamps = [0.0, 0.1, 0.2, 0.4, 0.6, 1.0, 1.1, 1.3, 1.4, 1.5]
    intervals = trainjob.step_intervals(stamps, 2, 5)
    rows = np.array([4, 4, 4, 4, 2])
    slices = trainjob.step_slices(intervals, rows, 2)
    assert slices["p50_ms"] == pytest.approx([100.0, 200.0, 150.0, 100.0])
    assert slices["examples_per_s"] == pytest.approx(
        [8 / 0.2, 6 / 0.4, 8 / 0.3, 6 / 0.2])


def test_metric_names_and_units_are_well_formed():
    bench = benchmark_json()
    names = [metric["name"]
             for section in ("end_to_end", "per_layer")
             for metric in bench[section]]
    names += [workload["name"] for workload in bench["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               for metric in bench["end_to_end"])
    assert all(0 < metric["bound"] <= 0.25 for metric in bench["end_to_end"])


def test_traced_run_emits_every_per_layer_metric():
    """A short traced rank-miss run (with its companion training run)
    reports exactly the per-layer metrics BENCHMARK.json names."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-miss",
         "--seed", "0", "--seconds", "9", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode == 3:
        pytest.skip("the host stalled the load generator; run invalid")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {metric["name"]: metric["unit"]
                for metric in benchmark_json()["per_layer"]}
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == declared
    assert all(math.isfinite(value["value"])
               for value in result["metrics"].values())
