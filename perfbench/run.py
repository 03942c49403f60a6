"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rank-miss --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, and prints every
per-layer metric.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails or the run is invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rank-miss", "rank-zipf", "train")
# The other side's layers, measured in trace mode by a short companion run
# so every workload reports every per-layer metric.
COMPANION_SERVING_SECONDS = 12.0
COMPANION_RANKER_EPOCHS = 1
COMPANION_QUERYCAT_EPOCHS = 2


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (clock ticks per state)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def host_fingerprint() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np
    blas = (np.show_config(mode="dicts").get("Build Dependencies", {})
            .get("blas", {}))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {key: value for key, value in sorted(os.environ.items())
                        if key.endswith("_NUM_THREADS")},
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def declared(section: str) -> dict:
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    from perfbench import rank, train

    if workload == "train":
        result = train.run(seed, seconds, trace, workdir)
        if trace:
            companion = rank.run("rank-miss", seed, COMPANION_SERVING_SECONDS,
                                 True, workdir / "companion")
            result["problems"] += companion["problems"]
            result["layers"].update(companion["layers"])
        return result
    result = rank.run(workload, seed, seconds, trace, workdir)
    phases = result.pop("phases")
    result["attempted"] = sum(phase.sent for phase in phases)
    result["failed"] = sum(phase.failed for phase in phases)
    result["record"]["fail_share"] = result["failed"] / result["attempted"]
    if trace:
        _, layers = train.traced_training(seed, workdir,
                                          COMPANION_RANKER_EPOCHS,
                                          COMPANION_QUERYCAT_EPOCHS)
        result["layers"].update(layers)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import spec

    trace = bool(args.trace)
    section = "per_layer" if trace else "end_to_end"
    units = declared(section)
    host = host_fingerprint()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    cpu_start = cpu_times()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace,
                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = result["layers"]
        untraced, traced = result["metrics"], result["traced_metrics"]
        metrics["trace.overhead_share"] = traced["p50_ms"] / untraced["p50_ms"] - 1
        result["record"]["untraced_metrics"] = untraced
        result["record"]["traced_metrics"] = traced
    else:
        metrics = result["metrics"]
    problems = result["problems"]
    if set(metrics) != set(units):
        problems.append(f"metric set differs from BENCHMARK.json {section}: "
                        f"missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    problems += [f"metric {key} is {value}" for key, value in metrics.items()
                 if not math.isfinite(value)]

    cpu = [end - start for start, end in zip(cpu_start, cpu_times())]
    # Share of CPU time the hypervisor gave to other guests (steal, the
    # eighth field): the noise this host adds that the code did not.
    host["steal_share"] = cpu[7] / sum(cpu) if len(cpu) > 7 else None
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "wall_s": time.perf_counter() - started,
              "problems": problems, **result["record"]}
    lateness = record.get("open_loop", {}).get("generator_lateness_p99_ms")
    valid = lateness is None or lateness <= spec.LATENESS_LIMIT_MS
    record["valid"] = valid
    (out_dir / "records").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "records" / f"{name}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if not valid:
        print(f"INVALID RUN: open-loop generator p99 lateness {lateness:.2f} ms "
              f"exceeds {spec.LATENESS_LIMIT_MS} ms; not reported",
              file=sys.stderr)
        return 3
    for key in sorted(metrics):
        print(f"{key:32s} {metrics[key]:14.6g} {units.get(key, '?')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {key: {"value": float(metrics[key]),
                          "unit": units.get(key, "?")}
                    for key in sorted(metrics)},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
