"""Query → category classifier (paper §4.1).

"A bidirectional GRU model is then trained with a softmax output layer to
predict the most likely product category a given input query belongs to.
Once the model predicts the sub-categories for a given query, the
top-categories are determined automatically via the category hierarchy."

The human annotation step is replaced by construction: the synthetic query
generator knows each query's true sub-category (``QueryTable.sc_ids``,
drawn by :func:`repro.data.sessions.simulate_log`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.sessions import QueryTable
from ..hierarchy import Taxonomy
from ..nn.infer import softmax_array

__all__ = ["QueryCategoryClassifier", "QueryClassifierConfig", "train_classifier",
           "ClassifierResult"]


@dataclass
class QueryClassifierConfig:
    """Hyper-parameters for the BiGRU query classifier."""

    embedding_dim: int = 16
    hidden_size: int = 24
    learning_rate: float = 5e-3
    epochs: int = 4
    batch_size: int = 128
    seed: int = 0
    # Group training batches by sequence length (and trim each batch to its
    # own longest query) so the fused GRU scan does less masked tail work.
    # Batch *order* is still shuffled every epoch.
    bucket_by_length: bool = True


@dataclass
class ClassifierResult:
    """Training outcome."""

    sc_accuracy: float
    tc_accuracy: float
    history: list[float]


class QueryCategoryClassifier(nn.Module):
    """Token embedding → BiGRU → linear softmax over sub-categories.

    The encoder runs on the fused recurrent fast path
    (:func:`repro.nn.functional.gru_sequence`): the token-embedding
    projection for all timesteps is one matmul per direction, each step is
    a single graph node, and length masking happens in-kernel.  Under
    ``nn.set_default_dtype(np.float32)`` the whole pipeline — embeddings,
    recurrent states, masks, head, loss — stays float32 end to end.
    """

    def __init__(self, vocab_size: int, num_sub_categories: int,
                 config: QueryClassifierConfig | None = None):
        super().__init__()
        self.config = config or QueryClassifierConfig()
        rng = np.random.default_rng(self.config.seed)
        self.embedding = nn.Embedding(vocab_size, self.config.embedding_dim, rng=rng)
        self.encoder = nn.BiGRU(self.config.embedding_dim, self.config.hidden_size, rng=rng)
        self.head = nn.Linear(self.encoder.output_size, num_sub_categories, rng=rng)
        # Serializes compiled inference (shared plan scratch buffers) and
        # guards the lazy plan build; held until the result is consumed.
        self._infer_lock = threading.Lock()
        self._infer_plan = None

    def forward(self, tokens: np.ndarray, lengths: np.ndarray) -> nn.Tensor:
        """Return (batch, num_sc) logits for padded token id sequences."""
        tokens = np.asarray(tokens, dtype=np.int64)
        batch, max_len = tokens.shape
        embedded = self.embedding(tokens.reshape(-1)).reshape(batch, max_len,
                                                              self.config.embedding_dim)
        encoded = self.encoder(embedded, lengths=np.asarray(lengths))
        return self.head(encoded)

    def predict_proba(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """(batch, num_sc) class probabilities via the compiled plan.

        Scoring runs graph-free: embedding gather, the BiGRU scan, and the
        linear head are plain-numpy closures compiled once on first use
        (reading weights live, so post-training calls need no recompile).
        """
        with self._infer_lock:
            return softmax_array(self._logits(tokens, lengths), axis=1)

    def predict_sc(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Most likely sub-category id per query (compiled scoring path).

        Argmaxes the raw head logits — softmax is monotone per row, so the
        serving hot path skips it entirely.
        """
        with self._infer_lock:
            return self._logits(tokens, lengths).argmax(axis=1)

    def _logits(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Head logits via the compiled closures (call under _infer_lock).

        Composes the registered compilers (one per submodule) so the
        forward math lives in repro.nn.infer alone — including the
        out-of-range id check the Tensor path performs.  The returned
        array is plan-owned scratch; consume it before releasing the lock.
        """
        if self._infer_plan is None:
            embedding = self.embedding.compiled()
            encoder = self.encoder.compiled()
            head = self.head.compiled()

            def plan(tokens, lengths):
                embedded = embedding(np.asarray(tokens, dtype=np.int64))
                encoded = encoder(embedded, lengths=np.asarray(lengths))
                return head(encoded)
            self._infer_plan = plan
        return self._infer_plan(tokens, lengths)

    def predict_tc(self, tokens: np.ndarray, lengths: np.ndarray,
                   taxonomy: Taxonomy) -> np.ndarray:
        """Top-category via the hierarchy, as in §4.1."""
        sc = self.predict_sc(tokens, lengths)
        return taxonomy.parents_of(sc)


def _epoch_batches(train_rows: np.ndarray, lengths: np.ndarray,
                   config: QueryClassifierConfig, rng: np.random.Generator):
    """Yield one epoch's minibatch row arrays.

    With ``bucket_by_length`` the (already shuffled) rows are stably sorted
    by query length, sliced into contiguous batches — so each batch holds
    queries of (nearly) one length — and the batch order is reshuffled.
    Equal-length queries keep their shuffled relative order, so batch
    composition still varies epoch to epoch.  Without bucketing, plain
    contiguous slices of the shuffled rows are yielded (the original loop).
    """
    if not config.bucket_by_length:
        for start in range(0, len(train_rows), config.batch_size):
            yield train_rows[start:start + config.batch_size]
        return
    by_length = train_rows[np.argsort(lengths[train_rows], kind="stable")]
    starts = np.arange(0, len(by_length), config.batch_size)
    for start in rng.permutation(starts):
        yield by_length[start:start + config.batch_size]


def train_classifier(model: QueryCategoryClassifier, queries: QueryTable,
                     taxonomy: Taxonomy, test_fraction: float = 0.2
                     ) -> ClassifierResult:
    """Train on the query table and report SC / TC accuracies on held-out
    queries (the paper reports that TC follows automatically from SC)."""
    config = model.config
    rng = np.random.default_rng(config.seed)
    n = queries.num_queries
    order = rng.permutation(n)
    cut = max(1, int(round(n * test_fraction)))
    test_rows, train_rows = order[:cut], order[cut:]

    # Cast the query table once at load time: int64 token/length/label
    # arrays mean every minibatch slice below is a pure gather, with no
    # per-batch dtype coercion inside the hot loop.
    tokens = np.ascontiguousarray(queries.tokens, dtype=np.int64)
    lengths = np.ascontiguousarray(queries.lengths, dtype=np.int64)
    sc_ids = np.ascontiguousarray(queries.sc_ids, dtype=np.int64)

    optimizer = nn.optim.AdamW(model.parameters(), lr=config.learning_rate,
                               weight_decay=1e-4)
    history: list[float] = []
    for _ in range(config.epochs):
        rng.shuffle(train_rows)
        losses = []
        for rows in _epoch_batches(train_rows, lengths, config, rng):
            batch_tokens = tokens[rows]
            batch_lengths = lengths[rows]
            if config.bucket_by_length:
                # Trim the padded tail: within a length-homogeneous batch
                # the max valid length is (near) the bucket length, so the
                # GRU scan runs fewer timesteps and skips most masks.
                batch_tokens = batch_tokens[:, :int(batch_lengths.max())]
            optimizer.zero_grad()
            logits = model(batch_tokens, batch_lengths)
            loss = nn.losses.cross_entropy(logits, sc_ids[rows])
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))

    predicted_sc = model.predict_sc(tokens[test_rows], lengths[test_rows])
    sc_accuracy = float((predicted_sc == queries.sc_ids[test_rows]).mean())
    predicted_tc = taxonomy.parents_of(predicted_sc)
    tc_accuracy = float((predicted_tc == queries.tc_ids[test_rows]).mean())
    return ClassifierResult(sc_accuracy=sc_accuracy, tc_accuracy=tc_accuracy,
                            history=history)
