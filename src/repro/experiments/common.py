"""Shared experiment infrastructure: scale presets and the standard pipeline.

Every table/figure module builds on :func:`build_environment` (world → log →
train/test datasets) and :func:`train_and_eval` (one model end to end).
Three scales are provided (EXPERIMENTS.md records the DEFAULT results):

* ``CI`` — seconds; used by the test suite and benchmark smoke runs.
* ``DEFAULT`` — the scale the committed EXPERIMENTS.md numbers come from.
* ``PAPER`` — the paper's §5.1.4 hyper-parameters (512x256 towers,
  embedding 16, lr 1e-4, N=10/K=4/D=1, λ=1e-3) at reduced data volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .. import nn
from ..data import (LogConfig, LTRDataset, SyntheticWorld, WorldConfig,
                    dataset_from_log, simulate_log, train_test_split)
from ..data.sessions import SearchLog
from ..hierarchy import Taxonomy, default_taxonomy
from ..models import ModelConfig, build_model
from ..training import TrainConfig, Trainer, evaluate

__all__ = ["Scale", "CI", "DEFAULT", "PAPER", "SCALES", "Environment",
           "build_environment", "train_and_eval", "model_config", "train_config"]


@dataclass(frozen=True)
class Scale:
    """One experiment scale preset."""

    name: str
    num_queries: int
    epochs: int
    batch_size: int
    learning_rate: float
    embedding_dim: int
    hidden_sizes: tuple[int, ...]
    num_experts: int = 10
    top_k: int = 4
    num_disagreeing: int = 1
    lambda_hsc: float = 1e-3
    lambda_adv: float = 1e-3
    world_seed: int = 0
    log_seed: int = 1
    tsne_examples: int = 300
    tsne_iters: int = 300
    # Compute dtype for model parameters and datasets.  float32 is the
    # default since PR 2 made the f32 pipeline hold end to end (≈2x the
    # f64 wall clock at identical metrics); "float64" restores the old
    # behaviour (e.g. for gradcheck-adjacent investigations).
    dtype: str = "float32"

    def with_updates(self, **kwargs) -> "Scale":
        return replace(self, **kwargs)

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


CI = Scale(name="ci", num_queries=500, epochs=2, batch_size=256,
           learning_rate=3e-3, embedding_dim=6, hidden_sizes=(12,),
           tsne_examples=60, tsne_iters=120)

DEFAULT = Scale(name="default", num_queries=3000, epochs=6, batch_size=256,
                learning_rate=3e-3, embedding_dim=8, hidden_sizes=(16,),
                tsne_examples=300, tsne_iters=300)

PAPER = Scale(name="paper", num_queries=8000, epochs=4, batch_size=256,
              learning_rate=1e-4, embedding_dim=16, hidden_sizes=(512, 256),
              tsne_examples=500, tsne_iters=500)

SCALES = {scale.name: scale for scale in (CI, DEFAULT, PAPER)}


@dataclass
class Environment:
    """A fully materialized experiment world."""

    scale: Scale
    taxonomy: Taxonomy
    world: SyntheticWorld
    log: SearchLog
    dataset: LTRDataset
    train: LTRDataset
    test: LTRDataset
    extras: dict = field(default_factory=dict)


@lru_cache(maxsize=8)
def _cached_environment(scale_name: str, num_queries: int, world_seed: int,
                        log_seed: int) -> Environment:
    scale = SCALES.get(scale_name)
    if scale is None:
        scale = DEFAULT.with_updates(name=scale_name)
    scale = scale.with_updates(num_queries=num_queries, world_seed=world_seed,
                               log_seed=log_seed)
    taxonomy = default_taxonomy()
    world = SyntheticWorld.generate(taxonomy, WorldConfig(seed=scale.world_seed))
    log = simulate_log(world, LogConfig(seed=scale.log_seed,
                                        num_queries=scale.num_queries))
    dataset = dataset_from_log(log)
    train, test = train_test_split(dataset)
    return Environment(scale=scale, taxonomy=taxonomy, world=world, log=log,
                       dataset=dataset, train=train, test=test)


def build_environment(scale: Scale) -> Environment:
    """Build (or fetch from cache) the environment for a scale preset."""
    return _cached_environment(scale.name, scale.num_queries,
                               scale.world_seed, scale.log_seed)


def model_config(scale: Scale, **overrides) -> ModelConfig:
    """The ModelConfig implied by a scale, with optional overrides."""
    base = ModelConfig(
        embedding_dim=scale.embedding_dim,
        hidden_sizes=scale.hidden_sizes,
        num_experts=scale.num_experts,
        top_k=scale.top_k,
        num_disagreeing=scale.num_disagreeing,
        lambda_hsc=scale.lambda_hsc,
        lambda_adv=scale.lambda_adv,
    )
    return base.with_updates(**overrides) if overrides else base


def train_config(scale: Scale, **overrides) -> TrainConfig:
    """The TrainConfig implied by a scale, with optional overrides."""
    config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size,
                         learning_rate=scale.learning_rate)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def train_and_eval(name: str, env: Environment, scale: Scale,
                   config: ModelConfig | None = None,
                   train_dataset: LTRDataset | None = None,
                   test_dataset: LTRDataset | None = None,
                   seed: int = 0, return_model: bool = False):
    """Train one named model and evaluate on the test split.

    Returns the metrics dict (auc / ndcg / ndcg@10), or (metrics, model)
    when ``return_model`` is set.
    """
    config = config or model_config(scale, seed=seed)
    train_ds = train_dataset if train_dataset is not None else env.train
    test_ds = test_dataset if test_dataset is not None else env.test
    # Build at the scale's dtype (float32 by default): parameters land on
    # it, and Trainer.fit casts the datasets to match once at load time.
    with nn.default_dtype(scale.np_dtype):
        model = build_model(name, env.dataset.spec, env.taxonomy, config,
                            train_dataset=train_ds)
    trainer = Trainer(model, train_config(scale, seed=seed))
    trainer.fit(train_ds, eval_dataset=None)
    metrics = evaluate(model, test_ds)
    if return_model:
        return metrics, model
    return metrics
