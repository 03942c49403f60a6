"""``repro.data`` — a synthetic stand-in for the paper's e-commerce search log.

Pipeline: :func:`~repro.data.world.SyntheticWorld.generate` builds a catalog
with planted category inhomogeneity; :func:`~repro.data.sessions.simulate_log`
rolls out search sessions with purchase labels; :func:`dataset_from_log`
wraps the result in the :class:`LTRDataset` container models train on.
"""

from .config import LogConfig, WorldConfig
from .dataset import Batch, LTRDataset, dataset_from_log, train_test_split
from .export import export_csv, load_dataset_npz, save_dataset_npz
from .schema import (NUMERIC_FEATURE_NAMES, FeatureSpec, NumericFeature, Side,
                     SparseFeature, build_feature_spec)
from .sessions import QueryTable, SearchLog, simulate_log
from .stats import DatasetStatistics, compute_statistics, format_table1
from .world import CategoryProfile, SyntheticWorld

__all__ = [
    "WorldConfig",
    "LogConfig",
    "SyntheticWorld",
    "CategoryProfile",
    "simulate_log",
    "SearchLog",
    "QueryTable",
    "LTRDataset",
    "Batch",
    "dataset_from_log",
    "save_dataset_npz",
    "load_dataset_npz",
    "export_csv",
    "train_test_split",
    "FeatureSpec",
    "SparseFeature",
    "NumericFeature",
    "Side",
    "build_feature_spec",
    "NUMERIC_FEATURE_NAMES",
    "DatasetStatistics",
    "compute_statistics",
    "format_table1",
]
