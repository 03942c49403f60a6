"""Tests for int8 quantized serving end to end (PR 10 tentpole).

Layers covered:

* checkpoint persistence — ``save_checkpoint(quantize=True)`` writes the
  ``.quant.npz`` sidecar, records calibration error in the sidecar meta,
  and the checksum manifest covers **every** artifact (a torn sidecar can
  no longer pass verification — the satellite fix this PR pins),
* registry — quantized reload lane, quarantine on torn/missing artifacts,
  last-good keeps serving,
* the quantized weight store + process scorers — byte-identical scores
  between in-process and ``--scorer-processes`` serving of the same
  quantized checkpoint,
* the gateway — ``quantized=True`` boots, answers, and reports the plan
  lane on ``/stats``,
* model quality — NDCG/AUC at DEFAULT scale move ≤ 0.1% relative vs f32,
* the packed top-K expert plan — the int8 towers share it with f32 and
  match the dense int8 expert loop to rounding level.
"""

import json

import numpy as np
import pytest

from repro import serving
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.infer import masked_softmax_array, sigmoid_array
from repro.nn.quantize import is_quantized_serving, quantizable_weights
from repro.serving import ModelRegistry, ProcessScorerHost
from repro.serving.checkpoint import ensure_weight_store, load_model_shared
from repro.serving.faults import FaultInjector
from repro.utils.serialization import (CheckpointCorrupted, load_checkpoint,
                                       load_model_quantized,
                                       load_quantized_checkpoint)


@pytest.fixture(scope="module")
def f32_model(dataset, taxonomy, tiny_model_config):
    model = build_model("adv-hsc-moe", dataset.spec, taxonomy,
                        tiny_model_config, train_dataset=dataset)
    return model.astype(np.float32)


@pytest.fixture(scope="module")
def batch(dataset):
    return dataset.batch(np.arange(24))


@pytest.fixture(scope="module")
def quant_dir(f32_model, dataset, taxonomy, batch, tmp_path_factory):
    directory = tmp_path_factory.mktemp("quantized-ckpts")
    serving.save_environment(directory, dataset.spec, taxonomy)
    serving.save_checkpoint(f32_model, directory / "ranker", "adv-hsc-moe",
                            quantize=True, calibration_batch=batch)
    return directory


def _dense_int8_scores(qmodel, batch):
    """The dense expert loop: every compiled int8 tower on every row, the
    logits weighted by the masked-softmax gate.  Returns the scores and
    the gate's top-K mask."""
    config, embedder = qmodel.config, qmodel.embedder
    x = embedder.model_input_array(batch)
    gate_in = embedder.gate_input_array(batch, config.gate_features,
                                        config.gate_include_numeric)
    clean = gate_in @ qmodel.inference_gate.weight.data
    mask = F.scatter_topk_mask(clean, config.top_k)
    probs = masked_softmax_array(clean, mask, axis=1)
    logits = np.column_stack([expert.compiled()(x).reshape(-1)
                              for expert in qmodel.experts])
    return sigmoid_array((probs * logits).sum(axis=1)), mask


class TestQuantizedCheckpoint:
    def test_sidecar_artifact_and_manifest(self, quant_dir):
        assert (quant_dir / "ranker.quant.npz").exists()
        meta = json.loads((quant_dir / "ranker.json").read_text())
        assert set(meta["checksum"]) == {"weights", "quantized"}
        q = meta["quantization"]
        assert q["scheme"] == "per-channel-symmetric-int8"
        assert q["params"] and all(name.endswith(".weight")
                                   for name in q["params"])
        assert q["nbytes"] > 0

    def test_calibration_recorded(self, quant_dir):
        meta = json.loads((quant_dir / "ranker.json").read_text())
        calibration = meta["quantization"]["calibration"]
        assert calibration["rows"] == 24
        assert 0.0 <= calibration["mean_abs_score_delta"] \
            <= calibration["max_abs_score_delta"] < 0.1

    def test_quantization_does_not_mutate_the_model(self, f32_model, batch,
                                                    quant_dir):
        """Saving with quantize=True (incl. calibration) must leave the
        live model full-precision: fresh plans score identically."""
        assert not is_quantized_serving(f32_model)
        assert all(not np.isnan(p.data).any()
                   for p in f32_model.parameters())
        np.testing.assert_array_equal(f32_model.make_scorer()(batch),
                                      f32_model.score(batch))

    def test_load_model_quantized_score_parity(self, f32_model, dataset,
                                               taxonomy, batch, quant_dir):
        qmodel = load_model_quantized(quant_dir / "ranker", dataset.spec,
                                      taxonomy)
        assert is_quantized_serving(qmodel)
        reference = np.asarray(f32_model.score(batch), dtype=np.float64)
        got = np.asarray(qmodel.score(batch), dtype=np.float64)
        meta = json.loads((quant_dir / "ranker.json").read_text())
        bound = meta["quantization"]["calibration"]["max_abs_score_delta"]
        # The calibration bound was measured on this very batch — loading
        # from disk must reproduce it, not merely approximate it.
        assert np.abs(got - reference).max() <= bound + 1e-7

    def test_predict_raises_on_quantized_model(self, dataset, taxonomy,
                                               batch, quant_dir):
        qmodel = load_model_quantized(quant_dir / "ranker", dataset.spec,
                                      taxonomy)
        with pytest.raises(RuntimeError, match="quantized"):
            qmodel.predict(batch)

    def test_unquantized_checkpoint_refuses_quantized_load(
            self, f32_model, dataset, taxonomy, tmp_path):
        serving.save_checkpoint(f32_model, tmp_path / "plain", "adv-hsc-moe")
        with pytest.raises(ValueError, match="quantize=True"):
            load_quantized_checkpoint(tmp_path / "plain")


class TestSidecarManifestCoverage:
    """Satellite fix: the checksum manifest must cover every artifact, so a
    torn sidecar can never pass verification."""

    def _save(self, f32_model, batch, tmp_path):
        serving.save_checkpoint(f32_model, tmp_path / "ranker",
                                "adv-hsc-moe", quantize=True,
                                calibration_batch=batch)
        return tmp_path / "ranker"

    def test_torn_quant_sidecar_fails_full_precision_load_too(
            self, f32_model, batch, tmp_path):
        """Even the f32 loader verifies the whole manifest: a checkpoint
        with any torn artifact is corrupt, full stop."""
        base = self._save(f32_model, batch, tmp_path)
        FaultInjector().tear_file(tmp_path / "ranker.quant.npz")
        with pytest.raises(CheckpointCorrupted, match="quantized"):
            load_checkpoint(base)
        with pytest.raises(CheckpointCorrupted):
            load_quantized_checkpoint(base)

    def test_torn_weights_fails_quantized_load(self, f32_model, batch,
                                               tmp_path):
        base = self._save(f32_model, batch, tmp_path)
        FaultInjector().tear_file(tmp_path / "ranker.npz")
        with pytest.raises(CheckpointCorrupted):
            load_quantized_checkpoint(base)

    def test_missing_declared_artifact_detected(self, f32_model, batch,
                                                tmp_path):
        base = self._save(f32_model, batch, tmp_path)
        (tmp_path / "ranker.quant.npz").unlink()
        with pytest.raises(CheckpointCorrupted, match="missing"):
            load_checkpoint(base)

    def test_unknown_manifest_key_detected(self, f32_model, batch, tmp_path):
        base = self._save(f32_model, batch, tmp_path)
        meta_path = tmp_path / "ranker.json"
        meta = json.loads(meta_path.read_text())
        meta["checksum"]["mystery"] = "sha256:" + "0" * 64
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointCorrupted, match="mystery"):
            load_checkpoint(base)


class TestQuantizedRegistry:
    def test_reload_registers_quantized_lane(self, quant_dir, dataset,
                                             taxonomy, batch, f32_model):
        registry = ModelRegistry()
        entries = registry.reload_from_directory(quant_dir, dataset.spec,
                                                 taxonomy, quantized=True)
        assert [(e.name, e.version) for e in entries] == [("ranker", 1)]
        entry = registry.entry("ranker")
        assert entry.metadata["quantized"] is True
        assert is_quantized_serving(entry.model)
        # Idempotent re-poll.
        assert registry.reload_from_directory(quant_dir, dataset.spec,
                                              taxonomy, quantized=True) == []

    def test_missing_quant_artifact_quarantined(self, f32_model, dataset,
                                                taxonomy, tmp_path):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(f32_model, tmp_path / "ranker",
                                "adv-hsc-moe")          # no quantize=True
        registry = ModelRegistry()
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy, quantized=True) == []
        quarantined = registry.quarantined()
        assert "ranker" in quarantined
        assert "quantize=True" in quarantined["ranker"]["reason"]

    def test_torn_quant_artifact_quarantines_and_keeps_last_good(
            self, f32_model, dataset, taxonomy, batch, tmp_path):
        serving.save_environment(tmp_path, dataset.spec, taxonomy)
        serving.save_checkpoint(f32_model, tmp_path / "ranker",
                                "adv-hsc-moe", quantize=True,
                                calibration_batch=batch)
        registry = ModelRegistry()
        first = registry.reload_from_directory(tmp_path, dataset.spec,
                                               taxonomy, quantized=True)
        assert len(first) == 1
        FaultInjector().tear_file(tmp_path / "ranker.quant.npz")
        assert registry.reload_from_directory(tmp_path, dataset.spec,
                                              taxonomy, quantized=True) == []
        assert "CheckpointCorrupted" in \
            registry.quarantined()["ranker"]["reason"]
        # v1 still serves.
        assert registry.latest_version("ranker") == 1
        registry.get("ranker").score(batch)
        # Repair: rewriting good bytes rolls forward to v2.
        serving.save_checkpoint(f32_model, tmp_path / "ranker",
                                "adv-hsc-moe", quantize=True,
                                calibration_batch=batch)
        repaired = registry.reload_from_directory(tmp_path, dataset.spec,
                                                  taxonomy, quantized=True)
        # Same logical weights, but int8 bytes are freshly serialized; the
        # fingerprint decides.  Either a clean repair (same bytes → clear
        # quarantine) or a new version is acceptable; the quarantine must
        # be gone and the registry serving.
        assert registry.quarantined() == {}
        assert repaired == [] or repaired[0].version == 1


class TestQuantizedWeightStore:
    def test_store_and_mmap_round_trip(self, quant_dir, dataset, taxonomy,
                                       batch):
        store = ensure_weight_store(quant_dir / "ranker", quantized=True)
        assert store.name.endswith(".qweights")
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["quantized"] is True
        shared = load_model_shared(quant_dir / "ranker", dataset.spec,
                                   taxonomy, quantized=True)
        assert is_quantized_serving(shared)
        reference = load_model_quantized(quant_dir / "ranker", dataset.spec,
                                         taxonomy)
        np.testing.assert_array_equal(shared.score(batch),
                                      reference.score(batch))

    def test_idempotent(self, quant_dir):
        store = ensure_weight_store(quant_dir / "ranker", quantized=True)
        assert ensure_weight_store(quant_dir / "ranker",
                                   quantized=True) == store


class TestQuantizedProcessScorers:
    def test_in_process_vs_process_shards_byte_identical(
            self, quant_dir, dataset, taxonomy, batch):
        """The ISSUE acceptance bar: the same quantized checkpoint must
        score byte-identically in-process and across scorer processes."""
        reference = load_model_quantized(quant_dir / "ranker", dataset.spec,
                                         taxonomy).score(batch)
        with ProcessScorerHost(quant_dir / "ranker", quant_dir,
                               processes=2, quantized=True) as host:
            for _ in range(host.processes):     # round-robin hits them all
                np.testing.assert_array_equal(host.make_scorer()(batch),
                                              reference)


class TestQuantizedGateway:
    @pytest.fixture(scope="class")
    def gateway_dir(self, f32_model, dataset, taxonomy, log, batch,
                    tmp_path_factory):
        from repro.querycat import (QueryCategoryClassifier,
                                    QueryClassifierConfig)
        directory = tmp_path_factory.mktemp("quantized-gateway")
        serving.save_environment(directory, dataset.spec, taxonomy)
        serving.save_checkpoint(f32_model, directory / "ranker",
                                "adv-hsc-moe", quantize=True,
                                calibration_batch=batch)
        classifier = QueryCategoryClassifier(
            log.queries.vocab_size, taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        serving.save_classifier_checkpoint(classifier, directory / "querycat")
        return directory

    def _rank_payload(self, dataset, rows=8, seed=11):
        rng = np.random.default_rng(seed)
        batch = dataset.batch(rng.integers(0, len(dataset), size=rows))
        numeric = batch.numeric
        sparse = {name: ids for name, ids in batch.sparse.items()}
        return numeric, sparse

    def test_quantized_gateway_serves_and_reports_lane(self, gateway_dir,
                                                       dataset, f32_model):
        from repro.serving.client import ServingClient
        from repro.serving.server import serve_from_directory
        numeric, sparse = self._rank_payload(dataset)
        server = serve_from_directory(gateway_dir, host="127.0.0.1", port=0,
                                      quantized=True, cache_entries=0)
        server.start()
        try:
            client = ServingClient(f"http://{server.host}:{server.port}")
            result = client.rank(numeric, sparse, top_k=8)
            assert result["scores"].shape == (8,)
            stats = client.stats()
            scorers = stats["scorers"]
            assert scorers and all(s["quantized"] for s in scorers.values())
            # Parity against direct f32 scoring within the pinned bound.
            meta = json.loads((gateway_dir / "ranker.json").read_text())
            bound = meta["quantization"]["calibration"][
                "max_abs_score_delta"]
            batch = serving.candidate_batch(numeric, sparse)
            reference = np.asarray(f32_model.score(batch),
                                   dtype=np.float64)
            reference = np.sort(reference)[::-1][:8]
            got = np.sort(np.asarray(result["scores"]))[::-1]
            assert np.abs(got - reference).max() <= bound + 1e-7
        finally:
            server.close()

    def test_f32_gateway_reports_unquantized_lane(self, gateway_dir,
                                                  dataset):
        from repro.serving.client import ServingClient
        from repro.serving.server import serve_from_directory
        numeric, sparse = self._rank_payload(dataset)
        server = serve_from_directory(gateway_dir, host="127.0.0.1", port=0,
                                      cache_entries=0)
        server.start()
        try:
            client = ServingClient(f"http://{server.host}:{server.port}")
            client.rank(numeric, sparse, top_k=4)
            scorers = client.stats()["scorers"]
            assert scorers and not any(s["quantized"]
                                       for s in scorers.values())
        finally:
            server.close()


class TestQuantizedTopKPlan:
    """int8 towers run through the same packed top-K expert plan as f32."""

    @pytest.fixture()
    def qmodel(self, quant_dir, dataset, taxonomy):
        return load_model_quantized(quant_dir / "ranker", dataset.spec,
                                    taxonomy)

    @pytest.fixture()
    def spread_batch(self, dataset):
        """Rows from many queries, so the gate routes to every expert."""
        return dataset.batch(np.arange(0, len(dataset), 47))

    def test_packed_plan_matches_dense_int8_plan(self, qmodel, spread_batch):
        dense, mask = _dense_int8_scores(qmodel, spread_batch)
        assert mask.any(axis=0).all()   # every expert's int8 segment runs
        got = qmodel.score(spread_batch)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-6)

    def test_nan_poisoned_f32_weights_are_never_read(self, qmodel,
                                                     spread_batch):
        """Hydration leaves NaN in every quantized Linear's f32 weight; a
        plan that read one would return a NaN score."""
        linears = list(quantizable_weights(qmodel).values())
        assert linears and all(np.isnan(linear.weight.data).all()
                               for linear in linears)
        assert _dense_int8_scores(qmodel, spread_batch)[1].any(axis=0).all()
        assert np.isfinite(qmodel.score(spread_batch)).all()
        assert np.isfinite(qmodel.make_scorer()(spread_batch)).all()


class TestQuantizedQuality:
    def test_ndcg_auc_delta_within_tenth_percent_at_default_scale(
            self, tmp_path):
        """ISSUE acceptance: NDCG/AUC delta ≤ 0.1% (relative) vs f32 on the
        paper experiment at DEFAULT scale."""
        from repro.experiments.common import (DEFAULT, build_environment,
                                              train_and_eval)
        from repro.training.trainer import evaluate
        env = build_environment(DEFAULT)
        metrics, model = train_and_eval("adv-hsc-moe", env, DEFAULT,
                                        return_model=True)
        serving.save_checkpoint(
            model, tmp_path / "ranker", "adv-hsc-moe", quantize=True,
            calibration_batch=env.test.batch(np.arange(128)))
        qmodel = load_model_quantized(tmp_path / "ranker", env.dataset.spec,
                                      env.taxonomy)
        qmetrics = evaluate(qmodel, env.test)
        for key in ("auc", "ndcg", "ndcg@10"):
            delta = abs(qmetrics[key] - metrics[key]) / max(metrics[key],
                                                            1e-12)
            assert delta <= 1e-3, (key, metrics[key], qmetrics[key])
