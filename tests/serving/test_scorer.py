"""BatchedScorer and predictor API behavior (chunking, filtering, errors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import TransE
from repro.core.models import make_complex
from repro.errors import ModelError, ServingError
from repro.serving import BatchedScorer, LinkPredictor, RelationFoldedScorer

NUM_ENTITIES, NUM_RELATIONS, BUDGET = 35, 5, 8


@pytest.fixture(scope="module")
def model():
    return make_complex(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(1))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(2)
    return rng.integers(0, NUM_ENTITIES, 13), rng.integers(0, NUM_RELATIONS, 13)


class TestBatchedScorer:
    @pytest.mark.parametrize("folded", [False, True])
    def test_chunk_size_stable_scores_and_identical_ranking(self, model, queries, folded):
        """Chunking may move values by a last-ulp (BLAS kernels differ per
        batch size) but must never change any within-row candidate order."""
        anchors, relations = queries
        full = BatchedScorer(model, folded=folded).all_scores(anchors, relations, "tail")
        full_order = np.argsort(-full, axis=1, kind="stable")
        for chunk in (1, 3, 13, 50):
            chunked = BatchedScorer(model, folded=folded, chunk_size=chunk).all_scores(
                anchors, relations, "tail"
            )
            np.testing.assert_allclose(full, chunked, rtol=1e-12, atol=1e-12)
            chunked_order = np.argsort(-chunked, axis=1, kind="stable")
            np.testing.assert_array_equal(full_order, chunked_order)

    def test_iter_covers_all_rows_in_order(self, model, queries):
        anchors, relations = queries
        scorer = BatchedScorer(model, chunk_size=4)
        spans = [
            (start, stop)
            for start, stop, _ in scorer.iter_all_scores(anchors, relations, "head")
        ]
        assert spans == [(0, 4), (4, 8), (8, 12), (12, 13)]

    def test_element_budget_bounds_chunk(self, model):
        scorer = BatchedScorer(model, max_chunk_elements=NUM_ENTITIES * 3)
        assert scorer.effective_chunk_size() == 3
        tiny = BatchedScorer(model, max_chunk_elements=1)
        assert tiny.effective_chunk_size() == 1

    def test_auto_folding_only_for_multi_embedding(self, model):
        assert BatchedScorer(model).uses_folding
        transe = TransE(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(3))
        assert not BatchedScorer(transe).uses_folding

    def test_forced_folding_on_wrong_model_raises(self):
        transe = TransE(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(3))
        with pytest.raises(ServingError):
            BatchedScorer(transe, folded=True)

    def test_folded_scores_match_model_scores(self, model, queries):
        anchors, relations = queries
        plain = BatchedScorer(model, folded=False).all_scores(anchors, relations, "tail")
        folded = BatchedScorer(model, folded=True).all_scores(anchors, relations, "tail")
        np.testing.assert_allclose(plain, folded, atol=1e-9)

    def test_bad_side_raises(self, model, queries):
        anchors, relations = queries
        with pytest.raises(ServingError):
            list(BatchedScorer(model).iter_all_scores(anchors, relations, "middle"))

    def test_bad_chunk_size_raises(self, model):
        with pytest.raises(ServingError):
            BatchedScorer(model, chunk_size=0)


class TestFoldedRefresh:
    def test_refresh_is_noop_until_version_changes(self, model):
        scorer = RelationFoldedScorer(model)
        assert scorer.refresh() is False
        model._bump_scoring_version()
        assert scorer.refresh() is True
        assert scorer.refresh() is False

    def test_force_refresh_always_rebuilds(self, model):
        scorer = RelationFoldedScorer(model)
        assert scorer.refresh(force=True) is True


class TestPredictorApi:
    def test_filtered_masking_pushes_known_tails_last(self, tiny_dataset):
        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            BUDGET,
            np.random.default_rng(5),
        )
        predictor = LinkPredictor(model, tiny_dataset)
        h, t, r = (int(v) for v in tiny_dataset.train.array[0])
        full = predictor.top_k([h], [r], side="tail", k=tiny_dataset.num_entities)
        filtered = predictor.top_k(
            [h], [r], side="tail", k=tiny_dataset.num_entities, filtered=True
        )
        known = set(tiny_dataset.filter_index.true_tails(h, r).tolist())
        assert t in known
        masked_positions = [
            int(np.flatnonzero(filtered.ids[0] == e)[0]) for e in known
        ]
        # all known tails carry -inf and sort after every unknown entity
        boundary = tiny_dataset.num_entities - len(known)
        assert min(masked_positions) >= boundary
        assert np.isneginf(filtered.scores[0][boundary:]).all()
        # the unmasked ordering of unknown entities is unchanged
        unknown_full = [e for e in full.ids[0] if e not in known]
        assert unknown_full == list(filtered.ids[0][:boundary])

    def test_filtered_without_dataset_raises(self, model, queries):
        anchors, relations = queries
        predictor = LinkPredictor(model)
        with pytest.raises(ServingError, match="filter_index"):
            predictor.top_k(anchors, relations, side="tail", k=3, filtered=True)

    def test_k_clamped_to_num_entities(self, model):
        predictor = LinkPredictor(model)
        top = predictor.top_k([0], [0], side="tail", k=10_000)
        assert top.k == NUM_ENTITIES

    def test_bad_k_raises(self, model):
        with pytest.raises(ServingError):
            LinkPredictor(model).top_k([0], [0], side="tail", k=0)

    def test_mismatched_query_shapes_raise(self, model):
        with pytest.raises(ServingError):
            LinkPredictor(model).top_k([0, 1], [0], side="tail", k=1)

    def test_out_of_range_candidates_raise(self, model):
        with pytest.raises(ModelError):
            LinkPredictor(model).top_k(
                [0], [0], side="tail", k=1, candidates=np.array([NUM_ENTITIES + 3])
            )

    def test_labeled_results_use_vocabulary(self, tiny_dataset):
        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            BUDGET,
            np.random.default_rng(7),
        )
        predictor = LinkPredictor(model, tiny_dataset)
        head = tiny_dataset.entities.name(0)
        relation = tiny_dataset.relations.name(0)
        results = predictor.predict(head=head, relation=relation, k=3)
        assert len(results) == 3
        for name, score in results:
            assert name in tiny_dataset.entities
            assert isinstance(score, float)

    def test_predict_requires_exactly_two_slots(self, tiny_dataset):
        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            BUDGET,
            np.random.default_rng(7),
        )
        predictor = LinkPredictor(model, tiny_dataset)
        with pytest.raises(ServingError, match="exactly two"):
            predictor.predict(head=tiny_dataset.entities.name(0))

    def test_predict_without_dataset_raises(self, model):
        with pytest.raises(ServingError, match="vocabularies"):
            LinkPredictor(model).predict(head="a", relation="b")
