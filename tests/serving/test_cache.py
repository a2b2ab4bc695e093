"""Cache correctness: hits change nothing, training invalidates everything."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import ServingError
from repro.nn.optimizers import make_optimizer
from repro.serving import LinkPredictor
from repro.serving.cache import LRUScoreCache

NUM_ENTITIES, NUM_RELATIONS, BUDGET = 30, 4, 8


@pytest.fixture
def model():
    return make_complex(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(3))


@pytest.fixture
def queries():
    rng = np.random.default_rng(5)
    return rng.integers(0, NUM_ENTITIES, 6), rng.integers(0, NUM_RELATIONS, 6)


def _train_one_step(model, rng):
    positives = np.stack(
        [
            rng.integers(0, NUM_ENTITIES, 8),
            rng.integers(0, NUM_ENTITIES, 8),
            rng.integers(0, NUM_RELATIONS, 8),
        ],
        axis=1,
    )
    negatives = np.stack(
        [
            rng.integers(0, NUM_ENTITIES, 8),
            rng.integers(0, NUM_ENTITIES, 8),
            rng.integers(0, NUM_RELATIONS, 8),
        ],
        axis=1,
    )
    model.train_step(positives, negatives, make_optimizer("sgd", learning_rate=0.1))


class TestCacheHitCorrectness:
    def test_results_identical_after_cache_hits(self, model, queries):
        heads, rels = queries
        predictor = LinkPredictor(model)
        first = predictor.top_k(heads, rels, side="tail", k=5)
        assert predictor.metrics.counter_value("serving.cache.hits") == 0
        second = predictor.top_k(heads, rels, side="tail", k=5)
        assert predictor.metrics.counter_value("serving.cache.hits") > 0
        assert np.array_equal(first.ids, second.ids)
        assert np.array_equal(first.scores, second.scores)

    def test_cached_and_uncached_predictors_agree(self, model, queries):
        heads, rels = queries
        cached = LinkPredictor(model, cache_size=64)
        uncached = LinkPredictor(model, cache_size=0)
        cached.top_k(heads, rels, side="tail", k=5)  # populate
        a = cached.top_k(heads, rels, side="tail", k=5)
        b = uncached.top_k(heads, rels, side="tail", k=5)
        assert np.array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_duplicate_rows_in_one_batch_share_a_sweep(self, model):
        predictor = LinkPredictor(model)
        heads = np.array([2, 2, 2])
        rels = np.array([1, 1, 1])
        top = predictor.top_k(heads, rels, side="tail", k=4)
        assert np.array_equal(top.ids[0], top.ids[1])
        assert np.array_equal(top.ids[0], top.ids[2])
        # one sweep for the unique key, entries for it only
        assert len(predictor.cache) == 1

    def test_filtered_and_raw_queries_share_cache_entries(self, model, queries):
        heads, rels = queries
        predictor = LinkPredictor(model)
        predictor.top_k(heads, rels, side="tail", k=5)
        misses_before = predictor.metrics.counter_value("serving.cache.misses")
        # A filtered query on the same keys must not recompute sweeps even
        # though its masked scores differ.
        from repro.kg.graph import FilterIndex
        from repro.kg.triples import TripleSet

        triples = TripleSet(
            np.array([[0, 1, 0]], dtype=np.int64), NUM_ENTITIES, NUM_RELATIONS
        )
        predictor._filter_index = FilterIndex(triples)
        predictor.top_k(heads, rels, side="tail", k=5, filtered=True)
        assert predictor.metrics.counter_value("serving.cache.misses") == misses_before


class TestCacheCounters:
    def test_hits_misses_and_evictions_counted_per_call(self, model):
        predictor = LinkPredictor(model, cache_size=2)
        predictor.top_k([0, 1, 2], [0, 0, 0], side="tail", k=3)  # 3 misses, 1 eviction
        predictor.top_k([1, 2], [0, 0], side="tail", k=3)  # 2 hits
        snapshot = predictor.metrics_snapshot()
        counters, gauges = snapshot.counters, snapshot.gauges
        assert counters["serving.cache.hits"] == 2
        assert counters["serving.cache.misses"] == 3
        assert counters["serving.cache.evictions"] == 1
        assert gauges["serving.cache.size"] == 2.0
        assert gauges["serving.cache.capacity"] == 2.0
        assert gauges["serving.cache.hit_rate"] == 2 / 5

    def test_uncached_predictor_has_no_cache_metrics(self, model):
        predictor = LinkPredictor(model, cache_size=0)
        predictor.top_k([0], [0], side="tail", k=3)
        snapshot = predictor.metrics_snapshot()
        assert not any(name.startswith("serving.cache.") for name in snapshot.counters)
        assert not any(name.startswith("serving.cache.") for name in snapshot.gauges)


class TestCacheInvalidation:
    def test_train_step_between_predictions_invalidates(self, model, queries):
        heads, rels = queries
        predictor = LinkPredictor(model)
        before = predictor.top_k(heads, rels, side="tail", k=5)
        version_before = model.scoring_version
        _train_one_step(model, np.random.default_rng(9))
        assert model.scoring_version > version_before
        after = predictor.top_k(heads, rels, side="tail", k=5)
        fresh = LinkPredictor(model, cache_size=0).top_k(heads, rels, side="tail", k=5)
        assert np.array_equal(after.ids, fresh.ids)
        np.testing.assert_array_equal(after.scores, fresh.scores)
        # and training genuinely moved the scores, so a stale cache would
        # have been observable
        assert not np.array_equal(before.scores, after.scores)

    def test_folded_tensor_refreshes_after_training(self, model, queries):
        heads, rels = queries
        predictor = LinkPredictor(model)
        assert predictor.scorer.uses_folding
        predictor.top_k(heads, rels, side="tail", k=3)
        _train_one_step(model, np.random.default_rng(13))
        after = predictor.top_k(heads, rels, side="tail", k=3)
        expected = LinkPredictor(model, cache_size=0, folded=False).top_k(
            heads, rels, side="tail", k=3
        )
        assert np.array_equal(after.ids, expected.ids)
        np.testing.assert_allclose(after.scores, expected.scores, atol=1e-9)

    @pytest.mark.parametrize("folded", [False, True])
    def test_clear_cache_resyncs_after_manual_surgery(self, model, queries, folded):
        """In-place weight edits bypass scoring_version; clear_cache must
        drop both the LRU entries and any stale folded tensor."""
        heads, rels = queries
        predictor = LinkPredictor(model, folded=folded)
        before = predictor.top_k(heads, rels, side="tail", k=3)
        model.entity_embeddings[:] = model.entity_embeddings[::-1].copy()
        model.relation_embeddings[:] = -model.relation_embeddings
        predictor.clear_cache()
        after = predictor.top_k(heads, rels, side="tail", k=3)
        fresh = LinkPredictor(model, cache_size=0, folded=False).top_k(
            heads, rels, side="tail", k=3
        )
        assert np.array_equal(after.ids, fresh.ids)
        np.testing.assert_allclose(after.scores, fresh.scores, atol=1e-9)
        assert not np.array_equal(before.scores, after.scores)


class TestLRUScoreCache:
    def test_capacity_and_eviction_order(self):
        cache = LRUScoreCache(capacity=2)
        cache.put((0, 0, "tail"), np.array([1.0]))
        cache.put((1, 0, "tail"), np.array([2.0]))
        cache.get((0, 0, "tail"))  # refresh key 0 -> key 1 becomes LRU
        cache.put((2, 0, "tail"), np.array([3.0]))
        assert (0, 0, "tail") in cache
        assert (1, 0, "tail") not in cache
        assert len(cache) == 2

    def test_stored_vectors_are_read_only_copies(self):
        cache = LRUScoreCache()
        source = np.array([1.0, 2.0])
        cache.put((0, 0, "tail"), source)
        source[0] = 99.0
        cached = cache.get((0, 0, "tail"))
        assert cached[0] == 1.0
        with pytest.raises(ValueError):
            cached[0] = 5.0

    def test_get_put_and_clear(self):
        cache = LRUScoreCache(capacity=4)
        assert cache.get((0, 0, "tail")) is None
        cache.put((0, 0, "tail"), np.zeros(3))
        assert cache.get((0, 0, "tail")) is not None
        assert len(cache) == 1
        assert repr(cache) == "LRUScoreCache(size=1/4)"
        cache.clear()
        assert len(cache) == 0

    def test_bad_capacity_raises(self):
        with pytest.raises(ServingError):
            LRUScoreCache(capacity=0)
