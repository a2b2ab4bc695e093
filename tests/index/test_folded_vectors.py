"""Folded candidate matrices: the inner-product scoring identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import (
    make_complex,
    make_cp,
    make_cph,
    make_distmult,
    make_quaternion,
)
from repro.errors import ServingError
from repro.index.folded_vectors import FoldedCandidateSource, fold_candidate_matrix

pytestmark = pytest.mark.index

MAKERS = {
    "distmult": make_distmult,
    "complex": make_complex,
    "cp": make_cp,
    "cph": make_cph,
    "quaternion": make_quaternion,
}


@pytest.fixture(params=sorted(MAKERS))
def model(request):
    return MAKERS[request.param](60, 5, 16, np.random.default_rng(9))


class TestScoringIdentity:
    """⟨anchor_flat, folded_row⟩ must equal the model's Eq. 8 score."""

    def test_tail_side(self, model):
        queries = model.entity_embeddings.reshape(model.num_entities, -1)
        for relation in range(model.num_relations):
            matrix = fold_candidate_matrix(model, relation, "tail")
            heads = np.arange(10)
            tails = np.arange(10, 20)
            expected = model.score_triples(
                heads, tails, np.full(10, relation, dtype=np.int64)
            )
            got = np.einsum("bf,bf->b", queries[heads], matrix[tails])
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_head_side(self, model):
        queries = model.entity_embeddings.reshape(model.num_entities, -1)
        matrix = fold_candidate_matrix(model, 1, "head")
        heads = np.arange(8)
        tails = np.arange(20, 28)
        expected = model.score_triples(heads, tails, np.full(8, 1, dtype=np.int64))
        got = np.einsum("bf,bf->b", queries[tails], matrix[heads])
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestValidation:
    def test_rejects_bad_relation(self, model):
        with pytest.raises(ServingError):
            fold_candidate_matrix(model, model.num_relations, "tail")

    def test_rejects_bad_side(self, model):
        with pytest.raises(ServingError):
            fold_candidate_matrix(model, 0, "sideways")

    def test_rejects_non_multi_embedding(self):
        with pytest.raises(ServingError):
            FoldedCandidateSource(object())


class TestSourceCache:
    def test_caches_within_version(self, model):
        source = FoldedCandidateSource(model)
        first = source.candidate_matrix(0, "tail")
        assert source.candidate_matrix(0, "tail") is first

    def test_invalidates_on_version_bump(self, model):
        source = FoldedCandidateSource(model)
        first = source.candidate_matrix(0, "tail")
        model.entity_embeddings[0] += 0.5
        model._bump_scoring_version()
        second = source.candidate_matrix(0, "tail")
        assert second is not first
        assert not np.allclose(first[0], second[0])

    def test_lru_evicts_beyond_capacity(self, model):
        source = FoldedCandidateSource(model, max_cached=1)
        first = source.candidate_matrix(0, "tail")
        source.candidate_matrix(1, "tail")
        assert source.candidate_matrix(0, "tail") is not first  # rebuilt

    def test_feature_dim_matches_entity_matrix(self, model):
        source = FoldedCandidateSource(model)
        assert source.entity_matrix().shape == (
            model.num_entities,
            source.feature_dim,
        )


def _fold_counts(source) -> dict:
    """The source's fold-cache counters, keyed by their last name part."""
    counters = source.metrics.snapshot().counters
    return {
        name.rsplit(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("index.fold_cache.")
    }


class TestCacheStats:
    def test_counts_hits_misses_and_evictions(self, model):
        source = FoldedCandidateSource(model, max_cached=1)
        source.candidate_matrix(0, "tail")  # miss
        source.candidate_matrix(0, "tail")  # hit
        source.candidate_matrix(1, "tail")  # miss, evicts relation 0
        source.candidate_matrix(0, "tail")  # miss again: the thrash signal
        counts = _fold_counts(source)
        assert (counts["hits"], counts["misses"]) == (1, 3)
        assert counts["evictions"] == 2

    def test_larger_cache_stops_the_thrash(self, model):
        source = FoldedCandidateSource(model, max_cached=4)
        for _ in range(3):
            for relation in range(3):
                source.candidate_matrix(relation, "tail")
        counts = _fold_counts(source)
        assert counts["misses"] == 3
        assert counts["hits"] == 6
        assert counts["evictions"] == 0

    def test_every_counter_is_declared(self, model):
        source = FoldedCandidateSource(model)
        source.candidate_matrix(0, "tail")
        assert _fold_counts(source) == {
            "hits": 0,
            "misses": 1,
            "evictions": 0,
        }

    def test_counts_into_the_given_registry(self, model):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        FoldedCandidateSource(model, metrics=registry).candidate_matrix(0, "tail")
        assert registry.counter_value("index.fold_cache.misses") == 1

    def test_rejects_non_positive_capacity(self, model):
        with pytest.raises(ServingError):
            FoldedCandidateSource(model, max_cached=0)
