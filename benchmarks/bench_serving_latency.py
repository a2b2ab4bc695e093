"""Serving-path latency and throughput micro-benchmarks.

A production link-prediction service answers "top-k tails of (h, ?, r)"
requests at interactive latency under heavy traffic.  These benchmarks
measure the :class:`~repro.serving.predictor.LinkPredictor` request
path under the regimes that matter for capacity planning:

* **cold**     — every request pays a full 1-vs-all sweep,
* **cached**   — a skewed workload re-requests warm (entity, relation)
  keys and is served from the opt-in LRU score cache (``cache_size``),
* **batched**  — many queries amortise one sweep call,
* **candidate-restricted** — a recommender-style request scores an
  explicit shortlist via the models' ``score_candidates`` fast paths.

Run directly (``pytest benchmarks/bench_serving_latency.py``); the
timing *assertions* are marked ``slow`` so ``-m "not slow"`` keeps
smoke runs fast.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.models import make_complex, make_quaternion
from repro.serving import LinkPredictor

NUM_ENTITIES, NUM_RELATIONS, BUDGET = 2000, 20, 64
BATCH, TOP_K, SHORTLIST = 256, 10, 32


def _model(maker=make_complex):
    return maker(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(1))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(0)
    heads = rng.integers(0, NUM_ENTITIES, BATCH)
    rels = rng.integers(0, NUM_RELATIONS, BATCH)
    return heads, rels


def test_topk_latency_cold(benchmark, queries):
    """Single-query top-k with no cache: the worst-case request."""
    heads, rels = queries
    predictor = LinkPredictor(_model())
    result = benchmark(lambda: predictor.top_k(heads[:1], rels[:1], side="tail", k=TOP_K))
    assert result.ids.shape == (1, TOP_K)


def test_topk_latency_cached(benchmark, queries):
    """Single-query top-k served from a warm LRU cache."""
    heads, rels = queries
    predictor = LinkPredictor(_model(), cache_size=64)
    predictor.warm_cache(heads[:1], rels[:1])
    result = benchmark(lambda: predictor.top_k(heads[:1], rels[:1], side="tail", k=TOP_K))
    assert result.ids.shape == (1, TOP_K)
    assert predictor.metrics.counter_value("serving.cache.hits") > 0


def test_topk_batched_throughput(benchmark, queries):
    """A full batch of queries through one chunked sweep."""
    heads, rels = queries
    predictor = LinkPredictor(_model())
    result = benchmark(lambda: predictor.top_k(heads, rels, side="tail", k=TOP_K))
    assert result.ids.shape == (BATCH, TOP_K)


def test_topk_candidate_shortlist(benchmark, queries):
    """Recommender-style scoring of an explicit candidate shortlist."""
    heads, rels = queries
    rng = np.random.default_rng(2)
    shortlist = rng.integers(0, NUM_ENTITIES, (BATCH, SHORTLIST))
    predictor = LinkPredictor(_model())
    result = benchmark(
        lambda: predictor.top_k(heads, rels, side="tail", k=TOP_K, candidates=shortlist)
    )
    assert result.ids.shape == (BATCH, TOP_K)


def test_relation_prediction_latency(benchmark, queries):
    """Top-k relations for a batch of (h, t) pairs."""
    heads, rels = queries
    del rels
    rng = np.random.default_rng(3)
    tails = rng.integers(0, NUM_ENTITIES, 16)
    predictor = LinkPredictor(_model())
    result = benchmark(lambda: predictor.top_k(heads[:16], tails, side="relation", k=5))
    assert result.ids.shape == (16, 5)


@pytest.mark.slow
def test_cache_hits_are_cheaper_than_sweeps():
    """A warm skewed workload must beat the same workload uncached.

    Every request hits one of 8 hot (entity, relation) keys — the shape
    of real traffic.  A cache hit skips the sweep entirely (measured
    ~1.55x on this workload; top-k selection cost is shared), so the
    cached run must be at least 1.2x faster — parity means the cache
    stopped hitting.
    """
    model = _model(make_quaternion)
    rng = np.random.default_rng(5)
    hot_heads = rng.integers(0, NUM_ENTITIES, 8)
    hot_rels = rng.integers(0, NUM_RELATIONS, 8)
    picks = rng.integers(0, 8, 512)
    heads, rels = hot_heads[picks], hot_rels[picks]

    def run(predictor) -> float:
        predictor.top_k(heads[:8], rels[:8], side="tail", k=TOP_K)  # warm / JIT caches
        start = time.perf_counter()
        for row in range(0, len(heads), 4):
            predictor.top_k(heads[row : row + 4], rels[row : row + 4], side="tail", k=TOP_K)
        return time.perf_counter() - start

    cold = run(LinkPredictor(model))
    warm = run(LinkPredictor(model, cache_size=64))
    assert warm * 1.2 < cold, f"cached serving not faster: warm={warm:.4f}s cold={cold:.4f}s"
