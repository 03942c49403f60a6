"""Model configuration.

Defaults follow the paper's §5.1.4 parameter settings: 512x256x1 towers,
embedding dimension 16, N=10 experts, K=4 active, D=1 disagreeing,
λ1 = λ2 = 1e-3.  Experiments at reduced scale shrink the tower sizes via
:mod:`repro.experiments.common`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .base import DEFAULT_INPUT_FEATURES, GATE_FEATURE_PRESETS

__all__ = ["ModelConfig", "PAPER_CONFIG"]


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters shared by every model variant."""

    embedding_dim: int = 16
    hidden_sizes: tuple[int, ...] = (512, 256)
    num_experts: int = 10
    top_k: int = 4
    num_disagreeing: int = 1          # D in §4.4
    lambda_hsc: float = 1e-3          # λ1 in eq. (14)
    lambda_adv: float = 1e-3          # λ2 in eq. (14)
    # Optional classic load-balancing regularizer (Shazeer et al. 2017);
    # 0 disables it — the paper replaces it with HSC (§2.0.2).
    lambda_load: float = 0.0
    gate_features: tuple[str, ...] = GATE_FEATURE_PRESETS["sc"]
    gate_include_numeric: bool = False
    input_features: tuple[str, ...] = DEFAULT_INPUT_FEATURES
    noisy_gating: bool = True
    # Ablation switches (paper defaults True); benchmarks/bench_ablation.py
    # measures each one against its naive alternative.
    hsc_restrict_topk: bool = True
    adv_on_sigmoid: bool = True
    # MMoE only: number of task buckets.
    num_tasks: int = 10
    seed: int = 0

    def with_updates(self, **kwargs) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self):
        if self.top_k > self.num_experts:
            raise ValueError("top_k cannot exceed num_experts")
        if self.num_disagreeing > self.num_experts - self.top_k:
            raise ValueError("D must be <= N - K (disagreeing experts come from the idle pool)")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")


PAPER_CONFIG = ModelConfig()
