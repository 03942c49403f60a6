"""The rank workloads: boot the gateway, drive ``/rank``, check the answers.

Each run builds one checkpoint directory (an untrained, seeded
PAPER-config ``adv-hsc-moe`` plus an untrained querycat classifier) and
pre-encodes every request before anything is timed.  Every gateway boot
is a fresh process with a cold result cache, serving the shipped
defaults of ``python -m repro.serving.server``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import spec, stats, wire

ROOT = Path(__file__).resolve().parents[1]
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


# ----------------------------------------------------------------------
# Inputs: checkpoint directory and pre-encoded traffic
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    """A checkpoint directory plus the in-process twin of its ranker."""

    directory: Path
    model: object
    feature_spec: object
    vocab_size: int


def build_deployment(directory: Path, seed: int) -> Deployment:
    """Checkpoint an untrained seeded PAPER-config ranker and classifier."""
    from repro import nn
    from repro.experiments.common import CI, PAPER, build_environment, \
        model_config
    from repro.models import build_model
    from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig
    from repro.serving.checkpoint import (load_environment, load_model,
                                          save_checkpoint,
                                          save_classifier_checkpoint,
                                          save_environment)

    # The CI world supplies the feature schema and taxonomy; the tower is
    # the paper's (10 experts, 512x256, embedding 16).  Scoring cost does
    # not depend on weight values, so nothing is trained.
    env = build_environment(CI)
    with nn.default_dtype(PAPER.np_dtype):
        model = build_model("adv-hsc-moe", env.dataset.spec, env.taxonomy,
                            model_config(PAPER, seed=seed),
                            train_dataset=env.train)
        classifier = QueryCategoryClassifier(
            env.log.queries.vocab_size, env.taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(seed=seed))
    directory.mkdir(parents=True, exist_ok=True)
    save_environment(directory, env.dataset.spec, env.taxonomy)
    weights = save_checkpoint(model, directory / "ranker", "adv-hsc-moe")
    save_classifier_checkpoint(classifier, directory / "querycat")
    feature_spec, taxonomy = load_environment(directory)
    return Deployment(directory=directory,
                      model=load_model(weights, feature_spec, taxonomy),
                      feature_spec=feature_spec,
                      vocab_size=env.log.queries.vocab_size)


@dataclass
class Payload:
    """One request: its arrays (for in-process checks) and wire bytes."""

    numeric: np.ndarray
    sparse: dict
    tokens: np.ndarray
    length: int
    raw: bytes

    @property
    def rows(self) -> int:
        return self.numeric.shape[0]


class PayloadFactory:
    """Seeded candidate sets and ragged queries; never repeats a query."""

    def __init__(self, feature_spec, vocab_size: int,
                 rng: np.random.Generator):
        self.spec = feature_spec
        self.vocab_size = vocab_size
        self.rng = rng
        self._queries: set = set()

    def _query(self) -> tuple[np.ndarray, int]:
        while True:
            length = int(self.rng.integers(1, spec.MAX_QUERY_TOKENS + 1))
            tokens = self.rng.integers(1, self.vocab_size, size=length)
            key = tuple(tokens.tolist())
            if key not in self._queries:
                self._queries.add(key)
                padded = np.zeros(spec.MAX_QUERY_TOKENS, dtype=np.int64)
                padded[:length] = tokens
                return padded, length

    def make(self, rows: int) -> Payload:
        numeric = self.rng.standard_normal((rows, self.spec.num_numeric))
        sparse = {feature.name: self.rng.integers(0, feature.cardinality,
                                                  size=rows)
                  for feature in self.spec.sparse}
        tokens, length = self._query()
        body = json.dumps({
            "candidates": {"numeric": numeric.tolist(),
                           "sparse": {name: ids.tolist()
                                      for name, ids in sparse.items()}},
            "query_tokens": tokens.tolist(),
            "query_lengths": [length],
            "top_k": spec.TOP_K,
        }).encode()
        return Payload(numeric, sparse, tokens, length,
                       wire.encode_request("POST", "/rank", body))


@dataclass
class Traffic:
    """Everything one measured gateway is sent, encoded before timing."""

    payloads: list[Payload]
    due_offsets: np.ndarray       # open loop, seconds from phase start
    open_ids: np.ndarray          # payload index per open-loop request
    closed_ids: np.ndarray        # payload order for the closed loop
    closed_seconds: float
    probes: list[Payload]         # warm-up + parity, never in the phases


def make_traffic(workload: str, seed: int, seconds: float,
                 deployment: Deployment) -> Traffic:
    """Seeded traffic for one rank run; the same seed gives the same bytes."""
    rate = spec.OPEN_LOOP_RATE[workload]
    open_seconds = seconds * spec.OPEN_LOOP_SHARE
    closed_seconds = seconds - open_seconds
    open_count = max(1, round(rate * open_seconds))
    closed_count = math.ceil(spec.CLOSED_POOL_PER_S[workload] * closed_seconds)
    schedule_rng = np.random.default_rng((seed, 1))
    factory = PayloadFactory(deployment.feature_spec, deployment.vocab_size,
                             np.random.default_rng((seed, 2)))
    probes = [factory.make(rows) for rows in (8, 64, 8, 64)]
    due = stats.poisson_schedule(rate, open_count, schedule_rng)
    if workload == "rank-miss":
        sizes = schedule_rng.choice(spec.MISS_ROWS,
                                    size=open_count + closed_count)
        payloads = [factory.make(int(rows)) for rows in sizes]
        open_ids = np.arange(open_count)
        closed_ids = np.arange(open_count, open_count + closed_count)
    else:
        payloads = [factory.make(spec.ZIPF_ROWS)
                    for _ in range(spec.ZIPF_UNIVERSE)]
        open_ids = stats.zipf_keys(spec.ZIPF_S, spec.ZIPF_UNIVERSE,
                                   open_count, schedule_rng)
        closed_ids = stats.zipf_keys(spec.ZIPF_S, spec.ZIPF_UNIVERSE,
                                     closed_count, schedule_rng)
    return Traffic(payloads, due, open_ids, closed_ids, closed_seconds,
                   probes)


# ----------------------------------------------------------------------
# Gateway process
# ----------------------------------------------------------------------
class Gateway:
    """One gateway process booted from the checkpoint directory.

    Untraced, it is exactly ``python -m repro.serving.server``; traced, the
    benchmark's launcher wraps the layer boundaries first and writes its
    spans to ``spans_path`` when the gateway drains.
    """

    def __init__(self, directory: Path, log_path: Path,
                 spans_path: Path | None = None):
        server_args = ["--checkpoint-dir", str(directory), "--port", "0"]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro.serving.server",
                         *server_args]
            path = [ROOT / "src"]
        else:
            self.argv = [sys.executable, "-m", "perfbench.traced_gateway",
                         str(spans_path), *server_args]
            path = [ROOT, ROOT / "src"]
        self.env = dict(os.environ, PYTHONUNBUFFERED="1",
                        PYTHONPATH=os.pathsep.join(map(str, path)))
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self._drain: threading.Thread | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(self.argv, cwd=ROOT, env=self.env,
                                         stdout=subprocess.PIPE, stderr=log,
                                         text=True)
        timer = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("serving ") and " on http://" in line:
                    url = line.split(" on http://", 1)[1].split()[0]
                    host, port = url.rsplit(":", 1)
                    self.host, self.port = host, int(port)
                    break
            else:
                raise RuntimeError(f"gateway exited before serving; see "
                                   f"{self.log_path}")
        finally:
            timer.cancel()
        # Keep draining stdout so a chatty gateway never blocks on the pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def client(self) -> wire.RawClient:
        return wire.RawClient(self.host, self.port)

    def get_json(self, path: str) -> dict:
        client = self.client()
        try:
            status, body = client.request(wire.encode_request("GET", path))
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("gateway did not drain within "
                               f"{STOP_TIMEOUT_S}s of SIGTERM") from None
        finally:
            self._close_pipe()

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self._close_pipe()

    def _close_pipe(self) -> None:
        if self._drain is not None:
            self._drain.join(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()


def boot(deployment: Deployment, traffic: Traffic, log_path: Path,
         spans_path: Path | None = None) -> tuple[Gateway, float]:
    """Spawn a gateway; return it and the seconds until its first scored
    ``/rank`` answered (pools are created lazily, so that is set-up)."""
    gateway = Gateway(deployment.directory, log_path, spans_path)
    started = time.perf_counter()
    try:
        gateway.start()
        client = gateway.client()
        try:
            status, body = client.request(traffic.probes[0].raw)
        finally:
            client.close()
        setup_s = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"first /rank answered {status}: {body[:200]}")
    except BaseException:
        gateway.kill()
        raise
    return gateway, setup_s


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def top_k_reference(deployment: Deployment, payload: Payload):
    """In-process ``model.score`` on the payload, ranked like the gateway."""
    from repro.serving.service import candidate_batch
    scores = np.asarray(deployment.model.score(
        candidate_batch(payload.numeric, payload.sparse)), dtype=np.float64)
    order = np.argsort(-scores, kind="stable")[:spec.TOP_K]
    return order, scores[order]


def check_parity(gateway: Gateway, deployment: Deployment,
                 traffic: Traffic) -> list[str]:
    """Warm every probe shape and compare served top-k to in-process."""
    problems = []
    client = gateway.client()
    try:
        for index, probe in enumerate(traffic.probes):
            status, body = client.request(probe.raw)
            if status != 200:
                problems.append(f"probe {index} answered {status}")
                continue
            served = json.loads(body)
            order, scores = top_k_reference(deployment, probe)
            served_scores = np.asarray(served["scores"], dtype=np.float64)
            if not np.allclose(served_scores, scores, rtol=spec.PARITY_RTOL,
                               atol=spec.PARITY_ATOL):
                problems.append(
                    f"probe {index}: served scores differ from model.score "
                    f"by {np.max(np.abs(served_scores - scores)):.3g}")
            elif served["indices"] != order.tolist():
                problems.append(f"probe {index}: served top-k order differs "
                                f"from model.score")
    finally:
        client.close()
    return problems


def check_responses(workload: str, traffic: Traffic,
                    phases: list[wire.PhaseResult]) -> list[str]:
    """Finite, well-formed answers; zipf hits equal the miss that filled
    them; rank-miss never hits (its payloads are unique)."""
    problems = []
    misses: dict[int, list] = {}
    hits: dict[int, list] = {}
    for phase in phases:
        for payload_id, status, body in phase.responses:
            if status != 200:
                continue
            answer = json.loads(body)
            scores, indices = answer["scores"], answer["indices"]
            rows = traffic.payloads[payload_id].rows
            if not all(math.isfinite(score) for score in scores):
                problems.append(f"{phase.name}: non-finite score for "
                                f"payload {payload_id}")
            if (len(indices) != min(spec.TOP_K, rows)
                    or len(set(indices)) != len(indices)
                    or not all(0 <= i < rows for i in indices)
                    or any(a < b for a, b in zip(scores, scores[1:]))):
                problems.append(f"{phase.name}: malformed top-k for payload "
                                f"{payload_id}")
            bucket = hits if answer["cached"] else misses
            bucket.setdefault(payload_id, []).append((indices, scores))
    if workload == "rank-miss" and hits:
        problems.append(f"{len(hits)} rank-miss payloads were cache hits; "
                        f"the workload's payloads must be unique")
    for payload_id, answers in hits.items():
        fills = misses.get(payload_id, [])
        if not fills:
            problems.append(f"payload {payload_id} hit the cache with no "
                            f"miss recorded before it")
        elif any(answer not in fills for answer in answers):
            problems.append(f"payload {payload_id}: a cache hit differs from "
                            f"every miss that could have filled it")
    return problems[:20]


# ----------------------------------------------------------------------
# One measured gateway
# ----------------------------------------------------------------------
@dataclass
class Measured:
    """Phases and /stats snapshots of one measured gateway."""

    phases: list                                   # [fill,] open, closed
    stats: list = field(default_factory=list)      # before, between, after
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    stats_delta: dict = field(default_factory=dict)
    idle: dict = field(default_factory=dict)

    @property
    def open_loop(self) -> wire.PhaseResult:
        return self.phases[-2]

    @property
    def closed_loop(self) -> wire.PhaseResult:
        return self.phases[-1]


def drive(gateway: Gateway, deployment: Deployment, traffic: Traffic,
          workload: str, connections: int, idle_probes: bool) -> Measured:
    """Warm up, check parity, run the open then the closed loop.

    On rank-zipf every payload of the universe is sent once first, so the
    measured phases see the cache's steady state (all hits) rather than
    the one-off cold start of a fresh gateway.
    """
    problems = check_parity(gateway, deployment, traffic)
    requests = [payload.raw for payload in traffic.payloads]
    phases = []
    if workload == "rank-zipf":
        phases.append(wire.closed_loop(
            gateway.host, gateway.port, requests, np.arange(len(requests)),
            connections, seconds=None, name="cache_fill"))
    snapshots = [gateway.get_json("/stats")]
    phases.append(wire.open_loop(gateway.host, gateway.port, requests,
                                 traffic.due_offsets, traffic.open_ids,
                                 connections))
    snapshots.append(gateway.get_json("/stats"))
    phases.append(wire.closed_loop(gateway.host, gateway.port, requests,
                                   traffic.closed_ids, connections,
                                   traffic.closed_seconds))
    snapshots.append(gateway.get_json("/stats"))
    measured = Measured(phases, snapshots, problems)
    measured.problems += check_responses(workload, traffic, phases)
    if idle_probes:
        measured.idle = idle_round_trips(gateway, traffic)
    measured.peak_rss_mb = stats.peak_rss_mb(gateway.proc.pid)
    return measured


def idle_round_trips(gateway: Gateway, traffic: Traffic,
                     rounds: int = 200) -> dict:
    """Idle ``/healthz`` round trip, and ``ServingClient.rank`` against the
    raw client on identical (cache-hit) requests."""
    from repro.serving.client import ServingClient

    raw = gateway.client()
    library = ServingClient(f"http://{gateway.host}:{gateway.port}")
    healthz = wire.encode_request("GET", "/healthz")
    try:
        healthz_s = []
        for _ in range(rounds):
            started = time.perf_counter()
            status, _ = raw.request(healthz)
            healthz_s.append(time.perf_counter() - started)
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        probes = [probe for probe in traffic.probes if probe.rows == 8]
        raw_s, library_s = [], []
        for index in range(rounds):
            probe = probes[index % len(probes)]
            started = time.perf_counter()
            status, _ = raw.request(probe.raw)
            raw_s.append(time.perf_counter() - started)
            if status != 200:
                raise RuntimeError(f"probe /rank answered {status}")
            started = time.perf_counter()
            library.rank(probe.numeric, probe.sparse,
                         query_tokens=probe.tokens,
                         query_lengths=[probe.length], top_k=spec.TOP_K)
            library_s.append(time.perf_counter() - started)
    finally:
        raw.close()
    return {"healthz_ms": statistics.median(healthz_s) * 1000.0,
            "client_overhead_ms": (statistics.fmean(library_s)
                                   - statistics.fmean(raw_s)) * 1000.0}


def stats_delta(before: dict, after: dict) -> dict:
    """Scorer, cache and /rank endpoint counters between two snapshots."""
    def scorer_totals(snapshot):
        totals = {"requests": 0, "rows": 0, "batches": 0, "busy_seconds": 0.0}
        for entry in snapshot["scorers"].values():
            for key in totals:
                totals[key] += entry[key]
        return totals

    start, end = scorer_totals(before), scorer_totals(after)
    delta = {key: end[key] - start[key] for key in start}
    for key in ("hits", "misses", "evictions"):
        delta[f"cache_{key}"] = after["cache"][key] - before["cache"][key]
    rank_before = before["endpoints"].get("/rank", {"count": 0, "sum_ms": 0.0})
    rank_after = after["endpoints"]["/rank"]
    delta["rank_count"] = rank_after["count"] - rank_before["count"]
    delta["rank_sum_ms"] = rank_after["sum_ms"] - rank_before["sum_ms"]
    return delta


# ----------------------------------------------------------------------
# Workload entry points
# ----------------------------------------------------------------------
def end_to_end(runs: list[Measured]) -> tuple[dict, dict]:
    """(metrics, record) over the measured gateways of one run.

    Latency and throughput are :func:`stats.best_slice` over
    ``spec.WINDOWS`` slices of each gateway's phase, pooled across
    gateways; RSS and set-up time are medians across gateways.
    """
    latency = stats.latency_summary(
        [measured.open_loop.latencies_s for measured in runs], spec.WINDOWS)
    rates = np.concatenate([
        stats.windowed_rates(m.closed_loop.completed_at,
                             m.closed_loop.started_at,
                             m.closed_loop.started_at
                             + m.closed_loop.elapsed_s, spec.WINDOWS)
        for m in runs])
    lateness = np.sort(np.concatenate(
        [m.open_loop.lateness_s for m in runs])) * 1000.0
    record = {
        "gateways": [{"setup_s": m.setup_s, "peak_rss_mb": m.peak_rss_mb,
                      **{phase.name: phase.record() for phase in m.phases}}
                     for m in runs],
        "open_loop": {**latency,
                      "generator_lateness_p50_ms":
                          stats.nearest_rank(lateness, 50),
                      "generator_lateness_p99_ms":
                          stats.nearest_rank(lateness, 99)},
        "closed_loop": {"slice_rates_per_s": rates.tolist()},
    }
    metrics = {"p50_ms": latency["p50_ms"],
               "throughput_per_s": stats.best_slice(
                   rates, higher_is_better=True),
               "peak_rss_mb": statistics.median(m.peak_rss_mb for m in runs),
               "setup_s": statistics.median(m.setup_s for m in runs)}
    return metrics, record


def serving_layers(measured: Measured, traced: Measured,
                   spans_path: Path, deployment: Deployment) -> dict:
    """Per-layer serving metrics over the measured phases.

    Counters come from /stats deltas and the idle probes of the untraced
    gateway; self times from the traced gateway's spans that started
    inside its phases (both processes read one monotonic clock).  Scorer
    and querycat figures are 0 when the phases ran no model (rank-zipf
    serves every phase request from the cache).
    """
    from .tracing import SpanSet

    first, last = traced.open_loop, traced.closed_loop
    spans = SpanSet.load(spans_path, window=(
        first.started_at, last.started_at + last.elapsed_s))
    phase, traced_phase = measured.stats_delta, traced.stats_delta
    closed = stats_delta(measured.stats[1], measured.stats[2])

    def per_batch(delta, key):
        return delta[key] / delta["batches"] if delta["batches"] else 0.0

    lookups = phase["cache_hits"] + phase["cache_misses"]
    scorer_ms = 1000.0 * spans.mean_duration("scorer.score", default=0.0)
    rank_requests = len(spans.select("handlers.dispatch",
                                     with_child="service.rank"))
    parse_s = sum(span[5] - span[4] for span in spans.select("protocol.feed"))
    layers = {
        "scorer.busy_ms_per_batch": 1000.0 * per_batch(phase,
                                                       "busy_seconds"),
        "scorer.batch_rows_mean": per_batch(phase, "rows"),
        "scorer.queue_ms": scorer_ms - 1000.0 * per_batch(traced_phase,
                                                          "busy_seconds")
        if scorer_ms else 0.0,
        "querycat.classify_ms": 1000.0 * spans.mean_duration(
            "service.classify_query", with_child="querycat.predict_sc",
            default=0.0),
        "cache.key_us": 1e6 * spans.mean_duration("cache.canonical_key"),
        "cache.hit_share": phase["cache_hits"] / lookups,
        "cache.evictions": phase["cache_evictions"],
        "handlers.self_ms": 1000.0 * spans.mean_self(
            "handlers.dispatch", with_child="service.rank"),
        "service.self_ms": 1000.0 * spans.mean_self("service.rank"),
        "protocol.parse_us": 1e6 * parse_s / rank_requests,
        "protocol.encode_us": 1e6 * (
            spans.mean_duration("protocol.encode_body")
            + spans.mean_duration("protocol.encode_head")),
        "transport.overhead_ms": 1000.0 * statistics.fmean(
            measured.closed_loop.latencies_s)
        - closed["rank_sum_ms"] / closed["rank_count"],
        "transport.healthz_ms": measured.idle["healthz_ms"],
        "client.overhead_ms": measured.idle["client_overhead_ms"],
    }
    layers.update(plan_probe(deployment))
    return layers


def plan_probe(deployment: Deployment, repeats: int = 200) -> dict:
    """``model.make_scorer()`` plan called alone on 8 and 64 rows."""
    from repro.serving.service import candidate_batch
    factory = PayloadFactory(deployment.feature_spec, deployment.vocab_size,
                             np.random.default_rng(0))
    plan = deployment.model.make_scorer()
    result = {}
    for rows in (8, 64):
        payload = factory.make(rows)
        batch = candidate_batch(payload.numeric, payload.sparse)
        for _ in range(10):
            plan(batch)
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            plan(batch)
            times.append(time.perf_counter() - started)
        result[f"infer.plan_ms.r{rows}"] = statistics.median(times) * 1000.0
    return result


def measure(deployment: Deployment, traffic: Traffic, workload: str,
            log: Path, spans_path: Path | None = None,
            idle_probes: bool = False) -> Measured:
    """Boot one fresh gateway (cold cache), drive it, stop it."""
    connections = len(os.sched_getaffinity(0))
    gateway, setup_s = boot(deployment, traffic, log, spans_path)
    try:
        measured = drive(gateway, deployment, traffic, workload, connections,
                         idle_probes)
    finally:
        exit_code = gateway.stop()
    measured.setup_s = setup_s
    measured.stats_delta = stats_delta(measured.stats[0], measured.stats[2])
    if exit_code != 0:
        measured.problems.append(f"gateway exited {exit_code} after SIGTERM")
    return measured


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    """One rank run: ``spec.RANK_BOOTS`` fresh gateways, one after another,
    each serving the same traffic sized to an equal share of ``seconds``.
    Traced, one untraced and one traced gateway serve that traffic."""
    boots = spec.RANK_BOOTS[workload]
    deployment = build_deployment(workdir / "checkpoints", seed)
    traffic = make_traffic(workload, seed, seconds / boots, deployment)
    log = workdir / "gateway.log"
    runs = [measure(deployment, traffic, workload, log, idle_probes=trace)
            for _ in range(1 if trace else boots)]
    metrics, record = end_to_end(runs)
    record.update(open_loop_rate_per_s=spec.OPEN_LOOP_RATE[workload],
                  stats_delta=[m.stats_delta for m in runs])
    result = {"metrics": metrics, "record": record,
              "problems": [p for m in runs for p in m.problems],
              "phases": [phase for m in runs for phase in m.phases]}
    if trace:
        spans_path = workdir / "gateway-spans.jsonl"
        traced = measure(deployment, traffic, workload, log, spans_path)
        result["problems"] += traced.problems
        result["traced_metrics"], _ = end_to_end([traced])
        result["layers"] = serving_layers(runs[0], traced, spans_path,
                                          deployment)
    return result
