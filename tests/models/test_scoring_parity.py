"""Compiled-vs-Tensor scoring parity for every buildable model config.

The serving fast lane (``model.score``) must be numerically interchangeable
with the autograd reference path (``model.predict``): ≤1e-12 in float64,
≤1e-6 in float32, for every factory model and the BiGRU query classifier.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.models.factory import MODEL_NAMES
from repro.nn.infer import softmax_array
from repro.querycat import QueryCategoryClassifier, QueryClassifierConfig


@pytest.fixture(scope="module")
def batch(dataset):
    return dataset.batch(np.arange(96))


def _build(name, dataset, taxonomy, tiny_model_config, dtype):
    with nn.default_dtype(dtype):
        return build_model(name, dataset.spec, taxonomy, tiny_model_config,
                           train_dataset=dataset)


class TestFactorySweep:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_f64_parity(self, name, dataset, taxonomy, tiny_model_config, batch):
        model = _build(name, dataset, taxonomy, tiny_model_config, np.float64)
        reference = model.predict(batch)
        fast = model.score(batch)
        assert fast.shape == reference.shape
        np.testing.assert_allclose(fast, reference, atol=1e-12)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_f32_parity(self, name, dataset, taxonomy, tiny_model_config, batch):
        model = _build(name, dataset, taxonomy, tiny_model_config, np.float32)
        ds32 = dataset.astype(np.float32)
        batch32 = ds32.batch(np.arange(96))
        reference = model.predict(batch32)
        fast = model.score(batch32)
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, reference, atol=1e-6)

    @pytest.mark.parametrize("name", ["dnn", "adv-hsc-moe"])
    def test_score_tracks_training(self, name, dataset, taxonomy,
                                   tiny_model_config, batch):
        """The cached scorer must see post-compile weight updates."""
        model = _build(name, dataset, taxonomy, tiny_model_config, np.float64)
        before = model.score(batch).copy()
        for param in model.parameters():
            param.data = param.data + 0.05
        after = model.score(batch)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, model.predict(batch), atol=1e-12)

    def test_predict_proba_aliases_score(self, dataset, taxonomy,
                                         tiny_model_config, batch):
        model = _build("moe", dataset, taxonomy, tiny_model_config, np.float64)
        np.testing.assert_array_equal(model.predict_proba(batch),
                                      model.score(batch))

    def test_negative_sparse_id_raises_like_predict(self, dataset, taxonomy,
                                                    tiny_model_config):
        """A corrupt serving request must fail, not silently wrap to the
        last embedding row (the Tensor path raises IndexError too)."""
        model = _build("dnn", dataset, taxonomy, tiny_model_config, np.float64)
        bad = dataset.batch(np.arange(4))
        bad.sparse["query_sc"] = bad.sparse["query_sc"].copy()
        bad.sparse["query_sc"][0] = -1
        with pytest.raises(IndexError):
            model.predict(bad)
        with pytest.raises(IndexError):
            model.score(bad)

    def test_concurrent_score_is_serialized(self, dataset, taxonomy,
                                            tiny_model_config):
        """One model object may sit behind several serving routes; its
        shared plan buffers must survive concurrent score() callers."""
        model = _build("moe", dataset, taxonomy, tiny_model_config, np.float64)
        batches = [dataset.batch(np.arange(i, i + 16)) for i in range(24)]
        expected = [model.score(b).copy() for b in batches]
        results: dict[int, np.ndarray] = {}

        def worker(i):
            results[i] = model.score(batches[i])
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(24):
            np.testing.assert_array_equal(results[i], expected[i])


MOE_NAMES = ("moe", "hsc-moe", "adv-moe", "adv-hsc-moe")
PRECISIONS = [(np.float64, 1e-12), (np.float32, 1e-6)]


def _topk_mask(model, batch):
    """The gate's top-K mask from the dense eval-mode forward."""
    return model.expert_scores(batch)[1]


def _rows_skipping_an_expert(model, dataset):
    """Rows none of which select the least-used expert, and that expert."""
    mask = _topk_mask(model, dataset.batch(np.arange(96)))
    expert = int(mask.sum(axis=0).argmin())
    return np.flatnonzero(~mask[:, expert]), expert


def _rows_sharing_one_expert_set(model, dataset):
    """The rows whose gate picks the most common set of K experts."""
    mask = _topk_mask(model, dataset.batch(np.arange(96)))
    _, inverse, counts = np.unique(mask, axis=0, return_inverse=True,
                                   return_counts=True)
    return np.flatnonzero(inverse.reshape(-1) == counts.argmax())


class TestTopKExpertPlan:
    """The MoE scorer runs each row through only its K gated experts; it
    must still match the dense Tensor forward (``predict``) at the parity
    bounds, whatever the routing looks like."""

    @pytest.mark.parametrize("dtype,atol", PRECISIONS)
    @pytest.mark.parametrize("name", MOE_NAMES)
    @pytest.mark.parametrize("case", ["k_equals_n", "skipped_expert",
                                      "shared_experts", "one_row"])
    def test_parity(self, case, name, dtype, atol, dataset, taxonomy,
                    tiny_model_config):
        config = tiny_model_config
        if case == "k_equals_n":
            config = dataclasses.replace(config, top_k=config.num_experts,
                                         num_disagreeing=0)
        model = _build(name, dataset, taxonomy, config, dtype)
        data = dataset.astype(dtype)
        if case == "skipped_expert":
            rows, expert = _rows_skipping_an_expert(model, data)
        elif case == "shared_experts":
            rows = _rows_sharing_one_expert_set(model, data)
        elif case == "one_row":
            rows = np.array([7])
        else:
            rows = np.arange(96)
        batch = data.batch(rows)
        mask = _topk_mask(model, batch)
        assert (mask.sum(axis=1) == config.top_k).all()
        if case == "k_equals_n":
            assert mask.all()
        elif case == "skipped_expert":
            assert rows.size > 1 and not mask[:, expert].any()
        elif case == "shared_experts":
            assert rows.size > 1 and (mask == mask[0]).all()
        reference = model.predict(batch)
        fast = model.score(batch)
        assert fast.dtype == dtype and fast.shape == reference.shape
        np.testing.assert_allclose(fast, reference, atol=atol)

    @pytest.mark.parametrize("name", MOE_NAMES)
    def test_unselected_expert_weights_are_never_read(
            self, name, dataset, taxonomy, tiny_model_config):
        """Dense evaluation multiplies an unselected expert's logit by an
        exact zero, and 0·NaN is NaN; the packed plan never reads it."""
        model = _build(name, dataset, taxonomy, tiny_model_config, np.float64)
        rows, expert = _rows_skipping_an_expert(model, dataset)
        batch = dataset.batch(rows)
        before = model.score(batch).copy()
        for param in model.experts[expert].parameters():
            param.data = np.full_like(param.data, np.nan)
        after = model.score(batch)
        assert np.isfinite(after).all()
        np.testing.assert_array_equal(after, before)


class TestClassifierParity:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_proba_matches_tensor_softmax(self, log, taxonomy, dtype, atol):
        queries = log.queries
        with nn.default_dtype(dtype):
            model = QueryCategoryClassifier(
                queries.vocab_size, taxonomy.max_sc_id() + 1,
                QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        tokens, lengths = queries.tokens[:48], queries.lengths[:48]
        with nn.no_grad():
            logits = model(tokens, lengths).data
        probs = model.predict_proba(tokens, lengths)
        np.testing.assert_allclose(probs, softmax_array(logits, axis=1), atol=atol)
        assert probs.shape == (48, taxonomy.max_sc_id() + 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_predict_sc_matches_tensor_argmax(self, log, taxonomy):
        queries = log.queries
        model = QueryCategoryClassifier(
            queries.vocab_size, taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        tokens, lengths = queries.tokens[:48], queries.lengths[:48]
        with nn.no_grad():
            reference = model(tokens, lengths).data.argmax(axis=1)
        np.testing.assert_array_equal(model.predict_sc(tokens, lengths), reference)

    def test_concurrent_predict_sc_is_serialized(self, log, taxonomy):
        """Concurrent intent classification (RankingService.rank callers)
        must not corrupt the shared plan scratch buffers."""
        queries = log.queries
        model = QueryCategoryClassifier(
            queries.vocab_size, taxonomy.max_sc_id() + 1,
            QueryClassifierConfig(embedding_dim=8, hidden_size=10))
        slices = [(queries.tokens[i:i + 8], queries.lengths[i:i + 8])
                  for i in range(16)]
        expected = [model.predict_sc(t, l) for t, l in slices]
        results: dict[int, np.ndarray] = {}

        def worker(i):
            t, l = slices[i]
            results[i] = model.predict_sc(t, l)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(16):
            np.testing.assert_array_equal(results[i], expected[i])
