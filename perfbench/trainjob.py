"""The train workload's measured process.

Usage: ``python -m perfbench.trainjob --seed N --ranker-epochs E
--querycat-epochs Q [--spans SPANS.jsonl]``.  Prints one JSON object.
With ``--spans`` the training layers are traced and the kernel probes run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from perfbench import spec, stats, tracing


def build(seed: int):
    """World -> log -> split datasets, and the ranker, all from the seed."""
    from repro import nn
    from repro.experiments import common
    from repro.models import build_model

    scale = common.DEFAULT.with_updates(world_seed=seed, log_seed=seed + 1)
    # build_environment memoizes; each set-up repetition must rebuild.
    common._cached_environment.cache_clear()
    env = common.build_environment(scale)
    with nn.default_dtype(scale.np_dtype):
        model = build_model("adv-hsc-moe", env.dataset.spec, env.taxonomy,
                            common.model_config(scale, seed=seed),
                            train_dataset=env.train)
    return scale, env, model


def step_clock(optimizer) -> list[float]:
    """Stamp the time after every optimizer step of ``optimizer``."""
    stamps: list[float] = []
    step = optimizer.step

    def timed_step():
        step()
        stamps.append(time.perf_counter())

    optimizer.step = timed_step
    return stamps


def step_intervals(stamps: list[float], epochs: int,
                   steps_per_epoch: int) -> np.ndarray:
    """(epochs, steps - 1) seconds between consecutive steps of an epoch
    (an epoch's first step has no predecessor in it and is left out)."""
    stamps = np.asarray(stamps).reshape(epochs, steps_per_epoch)
    return np.diff(stamps, axis=1)


def step_slices(intervals: np.ndarray, rows: np.ndarray,
                per_epoch: int) -> dict:
    """Step p50 (ms) and examples per second in each of ``per_epoch``
    consecutive slices of every epoch.

    ``intervals`` is :func:`step_intervals`; ``rows`` holds the examples of
    each batch of an epoch, so interval ``k`` is the time of batch ``k + 1``.
    """
    p50s, rates = [], []
    for epoch in intervals:
        for seconds, batch in zip(np.array_split(epoch, per_epoch),
                                  np.array_split(rows[1:], per_epoch)):
            p50s.append(1e3 * float(np.median(seconds)))
            rates.append(float(batch.sum() / seconds.sum()))
    return {"p50_ms": p50s, "examples_per_s": rates}


def kernel_probes(model, batch_size: int, querycat_config,
                  repeats: int = 200) -> dict:
    """The fused training kernels alone, forward plus backward."""
    from repro import nn
    from repro.nn import functional as F
    from repro.nn.layers import Linear, MLP

    rng = np.random.default_rng(0)
    tower = next(module for module in model.modules()
                 if isinstance(module, MLP))
    first = next(module for module in tower.modules()
                 if isinstance(module, Linear))
    dtype = first.weight.data.dtype
    x = nn.Tensor(rng.standard_normal((batch_size, first.weight.shape[0]))
                  .astype(dtype), requires_grad=True)

    def linear_relu():
        first.weight.grad = first.bias.grad = x.grad = None
        F.linear_relu(x, first.weight, first.bias).backward()

    hidden = querycat_config.hidden_size
    features = querycat_config.embedding_dim
    batch = querycat_config.batch_size
    seq = nn.Tensor(rng.standard_normal((batch, spec.MAX_QUERY_TOKENS,
                                         features)).astype(dtype),
                    requires_grad=True)
    weights = [nn.Tensor((rng.standard_normal(shape) * 0.1).astype(dtype),
                         requires_grad=True)
               for shape in ((features, 3 * hidden), (hidden, 3 * hidden),
                             (3 * hidden,), (3 * hidden,))]
    lengths = rng.integers(1, spec.MAX_QUERY_TOKENS + 1, size=batch)

    def gru_packed():
        for tensor in (seq, *weights):
            tensor.grad = None
        _, final = F.gru_sequence_packed(seq, *weights, lengths=lengths)
        final.backward()

    return {"functional.linear_relu_us": 1e6 * _median_time(linear_relu,
                                                            repeats),
            "functional.gru_packed_ms": 1e3 * _median_time(gru_packed,
                                                           repeats // 4)}


def _median_time(function, repeats: int) -> float:
    for _ in range(5):
        function()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.trainjob")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ranker-epochs", type=int, required=True)
    parser.add_argument("--querycat-epochs", type=int, required=True)
    parser.add_argument("--builds", type=int, default=1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        recorder = tracing.Recorder()
        tracing.install_training(recorder)
    from repro import nn
    import repro.querycat as querycat
    import repro.training as training
    from repro.experiments.common import train_config

    setup = []
    for _ in range(args.builds):
        started = time.perf_counter()
        scale, env, model = build(args.seed)
        setup.append(time.perf_counter() - started)

    config = train_config(scale, seed=args.seed, epochs=args.ranker_epochs)
    trainer = training.Trainer(model, config)
    stamps = step_clock(trainer.optimizer)
    fit = trainer.fit(env.train)
    fit_s = sum(record.seconds for record in fit.history)
    steps_per_epoch = env.train.num_batches(config.batch_size)
    intervals = step_intervals(stamps, args.ranker_epochs, steps_per_epoch)
    rows = np.minimum(config.batch_size, len(env.train)
                      - config.batch_size * np.arange(steps_per_epoch))
    started = time.perf_counter()
    test = training.evaluate(model, env.test)
    eval_s = time.perf_counter() - started

    queries = env.log.queries
    qc_config = querycat.QueryClassifierConfig(seed=args.seed,
                                               epochs=args.querycat_epochs)
    with nn.default_dtype(scale.np_dtype):
        classifier = querycat.QueryCategoryClassifier(
            queries.vocab_size, env.taxonomy.max_sc_id() + 1, qc_config)
        started = time.perf_counter()
        qc = querycat.train_classifier(classifier, queries, env.taxonomy)
        qc_s = time.perf_counter() - started
    # train_classifier holds out round(20%) of the queries.
    qc_train = queries.num_queries - max(1, round(queries.num_queries * 0.2))

    result = {
        "setup_runs_s": setup,
        "train_examples": len(env.train),
        "steps": len(stamps),
        "fit_s": fit_s,
        "train_examples_per_s": args.ranker_epochs * len(env.train) / fit_s,
        "slices": step_slices(intervals, rows, spec.TRAIN_EPOCH_SLICES),
        "final_loss": fit.history[-1].train_loss,
        "test_auc": test["auc"],
        "test_ndcg": test["ndcg"],
        "eval_s": eval_s,
        "querycat_s": qc_s,
        "querycat_queries_per_s": args.querycat_epochs * qc_train / qc_s,
        "querycat_sc_accuracy": qc.sc_accuracy,
        "peak_rss_mb": stats.peak_rss_mb(),
    }
    if recorder is not None:
        recorder.enabled = False
        recorder.write(args.spans)
        result["probes"] = kernel_probes(model, config.batch_size, qc_config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
