"""The train workload: fit the ranker and the query classifier.

The measured work runs in a child process (``perfbench.trainjob``) so its
peak RSS is the training process's alone.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from . import spec, stats, tracing

ROOT = Path(__file__).resolve().parents[1]
CHILD_TIMEOUT_S = 170.0
# Ranker epochs of the DEFAULT scale preset the workload trains at.
RANKER_EPOCHS = 6


def run_child(seed: int, ranker_epochs: int, querycat_epochs: int,
              builds: int = 1, spans_path: Path | None = None) -> dict:
    """Run one training process and return its JSON report."""
    argv = [sys.executable, "-m", "perfbench.trainjob", "--seed", str(seed),
            "--ranker-epochs", str(ranker_epochs),
            "--querycat-epochs", str(querycat_epochs),
            "--builds", str(builds)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        map(str, (ROOT, ROOT / "src"))))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"training process exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def training_layers(report: dict, spans: tracing.SpanSet) -> dict:
    """Per-layer training metrics from one traced training process."""
    return {
        "tensor.backward_ms": 1e3 * spans.mean_duration(
            "tensor.backward", within="trainer.fit"),
        "optim.step_ms": 1e3 * spans.mean_duration(
            "optim.step", within="trainer.fit"),
        "data.batch_ms": 1e3 * spans.mean_duration(
            "data.batch", within="trainer.fit"),
        "trainer.eval_s": spans.mean_duration("trainer.evaluate"),
        "querycat.fit_queries_per_s": report["querycat_queries_per_s"],
        **report["probes"],
    }


def traced_training(seed: int, workdir: Path, ranker_epochs: int,
                    querycat_epochs: int) -> tuple[dict, dict]:
    """(report, per-layer metrics) of one traced training process."""
    spans_path = workdir / "train-spans.jsonl"
    report = run_child(seed, ranker_epochs, querycat_epochs,
                       spans_path=spans_path)
    return report, training_layers(report, tracing.SpanSet.load(spans_path))


def end_to_end(reports: list[dict]) -> dict:
    """Metrics over training processes: step p50 and examples per second
    of the epoch slices (``spec.TRAIN_EPOCH_SLICES``), each taken by
    :func:`stats.best_slice`."""
    def slices(key):
        return [value for report in reports
                for value in report["slices"][key]]

    return {"setup_s": statistics.median(
                s for report in reports for s in report["setup_runs_s"]),
            "p50_ms": stats.best_slice(slices("p50_ms")),
            "throughput_per_s": stats.best_slice(
                slices("examples_per_s"), higher_is_better=True),
            "peak_rss_mb": statistics.median(
                report["peak_rss_mb"] for report in reports)}


def check(report: dict) -> list[str]:
    problems = []
    if not math.isfinite(report["final_loss"]):
        problems.append(f"final training loss is {report['final_loss']}")
    if not report["test_auc"] > spec.TEST_AUC_FLOOR:
        problems.append(f"test AUC {report['test_auc']:.4f} is not above "
                        f"the sanity floor {spec.TEST_AUC_FLOOR}")
    return problems


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One train run: ``spec.TRAIN_PROCESSES`` identical training processes
    (one when traced, plus one traced).  ``seconds`` does not size it: the
    recipe is fixed work (6 ranker epochs, ``spec.QUERYCAT_EPOCHS``
    classifier epochs)."""
    del seconds
    reports = [run_child(seed, RANKER_EPOCHS, spec.QUERYCAT_EPOCHS,
                         builds=spec.TRAIN_BUILDS)
               for _ in range(1 if trace else spec.TRAIN_PROCESSES)]
    result = {"metrics": end_to_end(reports), "record": {"runs": reports},
              "problems": [p for report in reports for p in check(report)],
              "attempted": sum(report["steps"] for report in reports),
              "failed": 0}
    if trace:
        traced, layers = traced_training(seed, workdir, RANKER_EPOCHS,
                                         spec.QUERYCAT_EPOCHS)
        result["problems"] += check(traced)
        result["traced_metrics"] = end_to_end([traced])
        result["layers"] = layers
    return result
