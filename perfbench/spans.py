"""Span recorder installed from outside the program under test.

The benchmark never edits ``src/``: it wraps the public functions of
each layer (class attributes or module attributes) with timing shims
that push a span on a thread-local stack.  Every span knows its parent,
so a layer's *self* time is its duration minus the time its child spans
covered.  Spans stay in memory and are written out once, at the end.

Recording is split into segments: each :meth:`SpanRecorder.start_segment`
opens a new one, so one process can record several phases of a run and
the benchmark can read each phase on its own.

Very frequent leaf calls (filter lookups, per-row ADC scans) are kept
as per-name aggregates instead of one record per call; their time is
still charged to the parent span as child time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Segment:
    """What the recorder captured between one start and the next."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, self_s, parent_name, attrs)
        self.leaf_count: dict[str, int] = defaultdict(int)
        self.leaf_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "leaf_count": dict(self.leaf_count),
            "leaf_seconds": dict(self.leaf_seconds),
            "counters": dict(self.counters),
        }


class SpanRecorder:
    def __init__(self) -> None:
        self.enabled = False
        self.segments: list[Segment] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def start_segment(self) -> Segment:
        """Open a new segment and record into it from now on.

        Takes no lock (a list append is atomic), so it is safe to call
        from a signal handler while a worker thread holds the lock.
        """
        segment = Segment()
        self.segments.append(segment)
        self.enabled = True
        return segment

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, leaf: bool = False, attrs=None):
        """A timing shim around *fn* recording spans under *name*.

        *attrs*, when given, is called as ``attrs(args, kwargs, result)``
        and returns a small dict stored with the span (e.g. row counts).
        """
        recorder = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [name, child seconds]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
            extra = attrs(args, kwargs, result) if attrs is not None else None
            with recorder._lock:
                segment = recorder.segments[-1]
                if leaf:
                    segment.leaf_count[name] += 1
                    segment.leaf_seconds[name] += duration
                    if extra:
                        for key, value in extra.items():
                            segment.counters[f"{name}.{key}"] += value
                else:
                    segment.spans.append(
                        (
                            name,
                            start,
                            end,
                            duration - frame[1],
                            parent[0] if parent is not None else None,
                            extra,
                        )
                    )
            return result

        return shim

    def patch(self, owner, attribute: str, name: str, *, leaf=False, attrs=None,
              static=False) -> None:
        """Replace ``owner.attribute`` with a recording shim."""
        original = getattr(owner, attribute)
        shim = self.wrap(name, original, leaf=leaf, attrs=attrs)
        setattr(owner, attribute, staticmethod(shim) if static else shim)

    def dump(self, path: Path) -> None:
        payload = {"segments": [segment.as_dict() for segment in self.segments]}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def load_segments(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text())["segments"]


# ------------------------------------------------------------ installation
def _rows(args, kwargs, result):
    anchors = args[1] if len(args) > 1 else kwargs.get("anchors")
    try:
        return {"rows": len(anchors)}
    except TypeError:
        return {"rows": 1}


def install_serving(recorder: SpanRecorder) -> None:
    """Wrap the serving-path layers (predictor, scorer, cache, filter, index,
    ingest) by patching their classes and modules in this process."""
    import repro.ingest as ingest_pkg
    import repro.ingest.service as ingest_service
    from repro.index.folded_vectors import FoldedCandidateSource
    from repro.index.ivf import IVFIndex
    from repro.index.pq import ProductQuantizer
    from repro.kg.graph import FilterIndex
    from repro.serving.cache import LRUScoreCache
    from repro.serving.predictor import LinkPredictor
    from repro.serving.scorer import BatchedScorer

    recorder.patch(LinkPredictor, "top_k", "predictor.top_k", attrs=_rows)
    recorder.patch(BatchedScorer, "all_scores", "scorer.all_scores")
    recorder.patch(BatchedScorer, "score_triples", "scorer.score_triples")
    recorder.patch(
        BatchedScorer,
        "score_candidates",
        "scorer.score_candidates",
        attrs=lambda a, k, r: {"rows": r.shape[0], "candidates": r.size},
    )
    recorder.patch(FilterIndex, "true_tails", "filter.lookup", leaf=True)
    recorder.patch(FilterIndex, "true_heads", "filter.lookup", leaf=True)
    recorder.patch(IVFIndex, "candidate_lists", "index.candidate_lists", attrs=_rows)
    recorder.patch(IVFIndex, "update_entities", "index.update_entities")
    recorder.patch(FoldedCandidateSource, "query_matrix", "fold.query_matrix")
    recorder.patch(ProductQuantizer, "lookup_tables", "pq.lookup_tables")
    recorder.patch(
        ProductQuantizer,
        "adc_scores",
        "pq.adc",
        leaf=True,
        static=True,
        attrs=lambda a, k, r: {"scanned": len(r)},
    )
    _install_cache_probe(recorder, LRUScoreCache)
    # ingest_delta is looked up on the package at call time by the
    # daemon's apply_delta; its stages are module globals of the service.
    recorder.patch(ingest_pkg, "ingest_delta", "ingest.delta")
    recorder.patch(ingest_service, "apply_delta", "ingest.apply")
    recorder.patch(ingest_service, "grow_model", "ingest.grow")
    recorder.patch(ingest_service, "fine_tune_delta", "ingest.fine_tune")


def _install_cache_probe(recorder: SpanRecorder, cache_cls) -> None:
    """Count score-cache hits/misses and the peak cache bytes (entries × N × 8)."""
    original_get = cache_cls.get
    original_put = cache_cls.put

    def get(self, key):
        entry = original_get(self, key)
        if recorder.enabled:
            with recorder._lock:
                counters = recorder.segments[-1].counters
                counters["cache.hits" if entry is not None else "cache.misses"] += 1
        return entry

    def put(self, key, scores):
        original_put(self, key, scores)
        if recorder.enabled:
            with recorder._lock:
                counters = recorder.segments[-1].counters
                counters["cache.bytes_peak"] = max(
                    counters["cache.bytes_peak"], len(self) * len(scores) * 8
                )

    cache_cls.get = get
    cache_cls.put = put


def install_training(recorder: SpanRecorder, model, trainer) -> None:
    """Wrap the train/eval layers of one in-process model and trainer."""
    import repro.eval.evaluator as evaluator_mod
    from repro.kg.graph import FilterIndex

    model.train_step = recorder.wrap("train.step", model.train_step)
    trainer.sampler.corrupt = recorder.wrap("train.corrupt", trainer.sampler.corrupt)
    model.score_all_tails = recorder.wrap("eval.sweep", model.score_all_tails)
    model.score_all_heads = recorder.wrap("eval.sweep", model.score_all_heads)
    recorder.patch(evaluator_mod, "ranks_from_score_matrix", "eval.rank")
    recorder.patch(FilterIndex, "true_tails", "filter.lookup", leaf=True)
    recorder.patch(FilterIndex, "true_heads", "filter.lookup", leaf=True)
