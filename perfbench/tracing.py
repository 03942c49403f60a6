"""Span recorders wrapped around the program's public functions.

The traced run installs these wrappers before it starts the gateway or
the trainer; nothing under ``src/`` is edited.  A span records its
trace id, span id, parent span id, name, start, end and thread.  Spans of
one request share a trace id: the parser span tags each request body it
completes, the dispatcher span picks the tag up by body identity, and the
response-body encode on the dispatch thread inherits the dispatch's id.
Spans stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """In-memory span store plus the wrapping machinery."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._body_traces: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, trace_of=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``trace_of(args)`` may pick the trace id of a root span (else a new
        one); ``after(args, result, trace_id)`` runs once the call returns.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            if stack:
                parent_id, trace_id = stack[-1]
            else:
                parent_id = 0
                trace_id = (trace_of(args) if trace_of is not None
                            else None) or next(recorder._ids)
            stack.append((span_id, trace_id))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((trace_id, span_id, parent_id, name,
                                       start, end, threading.get_ident()))
            if after is not None:
                after(args, result, trace_id)
            return result

        setattr(owner, attr, traced)

    # -- request linking -------------------------------------------------
    def _tag_bodies(self, args, requests, trace_id) -> None:
        for request in requests:
            if request.body:
                self._body_traces[id(request.body)] = trace_id

    def _trace_of_body(self, args):
        return self._body_traces.pop(id(args[3]), None)

    def _remember_trace(self, args, result, trace_id) -> None:
        self._local.last_trace = trace_id

    def _last_trace(self, args):
        return getattr(self._local, "last_trace", None)

    def write(self, path: str | Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_serving(recorder: Recorder) -> None:
    """Wrap the gateway's layer boundaries (call before the gateway boots)."""
    from repro.querycat import classifier
    from repro.serving import handlers, protocol, scorer, service, transport

    recorder.wrap(protocol.RequestParser, "feed", "protocol.feed",
                  after=recorder._tag_bodies)
    recorder.wrap(handlers.GatewayDispatcher, "dispatch", "handlers.dispatch",
                  trace_of=recorder._trace_of_body,
                  after=recorder._remember_trace)
    recorder.wrap(service.RankingService, "rank", "service.rank")
    recorder.wrap(service.RankingService, "classify_query",
                  "service.classify_query")
    recorder.wrap(classifier.QueryCategoryClassifier, "predict_sc",
                  "querycat.predict_sc")
    # service.py imported canonical_key by name; wrap the name it calls.
    recorder.wrap(service, "canonical_key", "cache.canonical_key")
    recorder.wrap(scorer.ScorerPool, "score", "scorer.score")
    # The selector transport renders the body on the dispatch thread and
    # the head on the loop thread, both through names it imported.
    recorder.wrap(transport, "encode_body", "protocol.encode_body",
                  trace_of=recorder._last_trace)
    recorder.wrap(transport, "encode_head", "protocol.encode_head")


def install_training(recorder: Recorder) -> None:
    """Wrap the training loop's layer boundaries (call before training)."""
    import repro.querycat as querycat
    import repro.training as training
    from repro.data import dataset
    from repro.nn import optim, tensor
    from repro.querycat import classifier
    from repro.training import trainer

    recorder.wrap(trainer.Trainer, "fit", "trainer.fit")
    recorder.wrap(trainer, "evaluate", "trainer.evaluate")
    training.evaluate = trainer.evaluate
    recorder.wrap(tensor.Tensor, "backward", "tensor.backward")
    recorder.wrap(optim.AdamW, "step", "optim.step")
    recorder.wrap(dataset.LTRDataset, "batch", "data.batch")
    recorder.wrap(classifier, "train_classifier", "querycat.fit")
    querycat.train_classifier = classifier.train_classifier


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class SpanSet:
    """Loaded spans with self times (duration minus child durations)."""

    def __init__(self, spans):
        self.spans = [tuple(span) for span in spans]
        child_time = defaultdict(float)
        self.children = defaultdict(list)
        for trace_id, span_id, parent_id, name, start, end, _ in self.spans:
            if parent_id:
                child_time[parent_id] += end - start
                self.children[parent_id].append(name)
        self.self_time = {span[1]: (span[5] - span[4]) - child_time[span[1]]
                          for span in self.spans}
        self._ancestor_names = {}
        parents = {span[1]: span[2] for span in self.spans}
        names = {span[1]: span[3] for span in self.spans}
        for span_id in parents:
            seen = set()
            parent = parents[span_id]
            while parent:
                seen.add(names.get(parent))
                parent = parents.get(parent, 0)
            self._ancestor_names[span_id] = seen

    @classmethod
    def load(cls, path: str | Path, window: tuple | None = None) -> "SpanSet":
        """Spans of a JSON-lines file; with ``window=(start, end)`` (the
        recorder's monotonic clock) only those that started inside it."""
        with open(path) as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        if window is not None:
            spans = [span for span in spans
                     if window[0] <= span[4] <= window[1]]
        return cls(spans)

    def select(self, name: str, within: str | None = None,
               with_child: str | None = None) -> list[tuple]:
        return [span for span in self.spans if span[3] == name
                and (within is None or within in self._ancestor_names[span[1]])
                and (with_child is None or with_child in self.children[span[1]])]

    def mean_duration(self, name: str, default: float | None = None,
                      **filters) -> float:
        """Mean seconds of the selected spans; ``default`` (if given)
        when there are none, else an error."""
        picked = self.select(name, **filters)
        if not picked:
            if default is not None:
                return default
            raise ValueError(f"no {name!r} spans recorded ({filters})")
        return sum(span[5] - span[4] for span in picked) / len(picked)

    def mean_self(self, name: str, **filters) -> float:
        picked = self.select(name, **filters)
        if not picked:
            raise ValueError(f"no {name!r} spans recorded ({filters})")
        return sum(self.self_time[span[1]] for span in picked) / len(picked)
