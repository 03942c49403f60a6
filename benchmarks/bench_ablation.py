"""Ablation benches for paper-specified design details.

Each ablation trains the combined model with one paper-specified detail
switched to its naive alternative and reports the AUC delta:

* HSC restricted to the top-K support (eq. 11) vs full support.
* AdvLoss on sigmoid outputs (eq. 12) vs raw logits.
* Noisy top-K gating vs deterministic top-K.
"""

from repro.experiments.common import build_environment, model_config, train_and_eval

from .conftest import run_once


def _auc_with(scale, **config_overrides) -> float:
    env = build_environment(scale)
    config = model_config(scale, **config_overrides)
    metrics = train_and_eval("adv-hsc-moe", env, scale, config=config)
    return metrics["auc"]


def test_ablation_hsc_topk_restriction(benchmark, scale):
    """Eq. 11 sums (p^I - p^C)^2 over the top-K support only."""
    def run():
        return (_auc_with(scale, hsc_restrict_topk=True),
                _auc_with(scale, hsc_restrict_topk=False))
    restricted, full = run_once(benchmark, run)
    benchmark.extra_info["topk_restricted_auc"] = round(restricted, 4)
    benchmark.extra_info["full_support_auc"] = round(full, 4)
    assert restricted > 0.6 and full > 0.6


def test_ablation_adv_on_sigmoid(benchmark, scale):
    """Eq. 12 measures expert distance after the sigmoid."""
    def run():
        return (_auc_with(scale, adv_on_sigmoid=True),
                _auc_with(scale, adv_on_sigmoid=False))
    on_sigmoid, on_logits = run_once(benchmark, run)
    benchmark.extra_info["sigmoid_auc"] = round(on_sigmoid, 4)
    benchmark.extra_info["logits_auc"] = round(on_logits, 4)
    # Raw-logit distances are unbounded; subtracting them from the loss can
    # destabilize training, which is why the paper uses σ(E_i).
    assert on_sigmoid > 0.6


def test_ablation_noisy_gating(benchmark, scale):
    """Shazeer-style noise on the gate logits vs deterministic top-K."""
    def run():
        return (_auc_with(scale, noisy_gating=True),
                _auc_with(scale, noisy_gating=False))
    noisy, deterministic = run_once(benchmark, run)
    benchmark.extra_info["noisy_auc"] = round(noisy, 4)
    benchmark.extra_info["deterministic_auc"] = round(deterministic, 4)
    assert noisy > 0.6 and deterministic > 0.6
