"""Regression tests for serving-path correctness bugs.

Three latent edge cases the serving daemon would have turned into
production incidents, each pinned by a test that fails on the pre-fix
code:

* ``_top_k_via_index`` crashed with ``IndexError`` when an index
  returned an *empty* shortlist (a degenerate IVF partition with no
  fallback): padding used ``row[-1]``.
* ``TopKResult.labeled`` resolved the pad id ``-1`` through the
  vocabulary, silently naming the *last* entity; ``predict`` only
  stripped pads from row 0.
* ``LinkPredictor._full_scores`` skipped ``_sync_version()`` whenever
  ``cache_size=0``, so the predictor's ``model_version`` bookkeeping
  drifted after training.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.index.base import CandidateBatch, CandidateIndex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor, TopKResult

NUM_ENTITIES_HINT = 120
BUDGET = 8


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_kg(
        SyntheticKGConfig(num_entities=NUM_ENTITIES_HINT, num_clusters=6, seed=11)
    )


@pytest.fixture()
def model(dataset):
    return make_complex(
        dataset.num_entities,
        dataset.num_relations,
        BUDGET,
        np.random.default_rng(3),
    )


class DegeneratePartitionIndex(CandidateIndex):
    """An index whose partitions can come back *empty*.

    Mimics a degenerate IVF partition (every probed cell empty) without
    the IVF's own full-range fallback: queries whose anchor id is even
    get an empty shortlist, odd anchors get a small ascending one.  This
    is contract-legal — ``CandidateBatch`` rows may be empty — so the
    predictor must serve all-pad rows instead of crashing.
    """

    kind = "degenerate"

    def __init__(self, model, empty_for_all: bool = False):
        super().__init__(model)
        self.empty_for_all = empty_for_all

    def candidate_lists(self, anchors, relations, side, nprobe=None):
        anchors = np.atleast_1d(np.asarray(anchors, dtype=np.int64))
        rows = []
        for anchor in anchors:
            if self.empty_for_all or int(anchor) % 2 == 0:
                rows.append(np.empty(0, dtype=np.int64))
            else:
                rows.append(np.arange(5, dtype=np.int64))
        # Empty rows pad with id 0; the others all have the full width.
        ids = np.zeros((len(rows), 5), dtype=np.int64)
        for out, row in zip(ids, rows):
            out[: len(row)] = row
        lengths = np.array([len(row) for row in rows], dtype=np.int64)
        return CandidateBatch(
            ids=ids, lengths=lengths, covers_all=False, num_scored=int(lengths.sum())
        )

    def invalidate(self):
        self._version = self.model.scoring_version


class TestEmptyShortlist:
    def test_all_empty_shortlists_return_all_pad_rows(self, model, dataset):
        predictor = LinkPredictor(
            model, dataset, index=DegeneratePartitionIndex(model, empty_for_all=True)
        )
        result = predictor.top_k_tails([0, 2], [0, 1], k=4)
        assert result.ids.shape == (2, 4)
        assert (result.ids == -1).all()
        assert np.isneginf(result.scores).all()

    def test_mixed_empty_and_short_rows(self, model, dataset):
        """Empty rows pad fully; nonempty rows still rank their shortlist."""
        predictor = LinkPredictor(model, dataset, index=DegeneratePartitionIndex(model))
        result = predictor.top_k_tails([2, 3], [0, 0], k=4)
        assert (result.ids[0] == -1).all()
        assert np.isneginf(result.scores[0]).all()
        # The odd-anchor row ranks candidates {0..4} with true model scores.
        assert set(result.ids[1]) <= set(range(5))
        expected = model.score_triples(
            np.full(4, 3), result.ids[1], np.zeros(4, dtype=np.int64)
        )
        np.testing.assert_allclose(result.scores[1], expected, atol=1e-10)

    def test_filtered_query_with_empty_shortlist(self, model, dataset):
        predictor = LinkPredictor(
            model, dataset, index=DegeneratePartitionIndex(model, empty_for_all=True)
        )
        result = predictor.top_k_tails([4], [0], k=3, filtered=True)
        assert (result.ids == -1).all()

    def test_empty_shortlist_counts_as_a_query(self, model, dataset):
        predictor = LinkPredictor(
            model, dataset, index=DegeneratePartitionIndex(model, empty_for_all=True)
        )
        predictor.top_k_tails([0, 2, 4], [0, 0, 0], k=2)
        stats = predictor.index_stats_dict()
        assert stats["queries"] == 3
        assert stats["entities_scored"] == 0


class TestLabeledDropsPads:
    def test_pad_ids_dropped_in_every_row(self, dataset):
        result = TopKResult(
            ids=np.array([[3, 1, -1], [-1, -1, -1], [2, -1, -1]]),
            scores=np.array(
                [[2.0, 1.0, -np.inf], [-np.inf, -np.inf, -np.inf], [0.5, -np.inf, -np.inf]]
            ),
        )
        labeled = result.labeled(dataset.entities)
        assert [len(row) for row in labeled] == [2, 0, 1]
        assert labeled[0][0][0] == dataset.entities.name(3)
        assert labeled[2][0][0] == dataset.entities.name(2)

    def test_pad_never_resolves_to_last_entity(self, dataset):
        """The pre-fix code named the *last* vocabulary entry for -1."""
        last = dataset.entities.name(dataset.num_entities - 1)
        result = TopKResult(
            ids=np.array([[0, -1]]), scores=np.array([[1.0, -np.inf]])
        )
        names = [name for row in result.labeled(dataset.entities) for name, _ in row]
        assert last not in names

    def test_predict_drops_pads_via_labeled(self, model, dataset):
        predictor = LinkPredictor(model, dataset, index=DegeneratePartitionIndex(model))
        predictions = predictor.predict(
            head=dataset.entities.name(1),
            relation=dataset.relations.name(0),
            k=20,
        )
        # Odd-id head: 5-candidate shortlist, minus filtered entries.
        assert 0 < len(predictions) <= 5
        assert all(name in dataset.entities for name, _ in predictions)


class TestVersionSyncWithoutCache:
    def test_model_version_tracks_training_with_cache_disabled(self, model):
        predictor = LinkPredictor(model, cache_size=0)
        assert predictor.model_version == model.scoring_version
        model._bump_scoring_version()
        assert predictor.model_version != model.scoring_version
        predictor.top_k_tails([0], [0], k=3)
        assert predictor.model_version == model.scoring_version

    def test_relation_queries_sync_too(self, model):
        predictor = LinkPredictor(model, cache_size=0)
        model._bump_scoring_version()
        predictor.top_k_relations([0], [1], k=2)
        assert predictor.model_version == model.scoring_version

    def test_staleness_through_training(self, model, dataset):
        """Train between queries: the uncached predictor must re-sync and
        its answers must match a freshly constructed predictor's."""
        from repro.training.trainer import Trainer, TrainingConfig

        predictor = LinkPredictor(model, dataset, cache_size=0)
        before = predictor.top_k_tails([0, 1], [0, 0], k=5)
        Trainer(
            dataset,
            TrainingConfig(
                epochs=2, batch_size=256, validate_every=10**9, patience=10**9, seed=5
            ),
        ).train(model)
        after = predictor.top_k_tails([0, 1], [0, 0], k=5)
        assert predictor.model_version == model.scoring_version
        fresh = LinkPredictor(model, dataset, cache_size=0).top_k_tails(
            [0, 1], [0, 0], k=5
        )
        np.testing.assert_array_equal(after.ids, fresh.ids)
        np.testing.assert_array_equal(after.scores, fresh.scores)
        assert not np.array_equal(before.scores, after.scores)

    def test_clear_cache_bookkeeping_consistent_without_cache(self, model):
        predictor = LinkPredictor(model, cache_size=0)
        model._bump_scoring_version()
        predictor.clear_cache()
        assert predictor.model_version == model.scoring_version
        predictor.top_k_tails([0], [0], k=2)
        assert predictor.model_version == model.scoring_version
