"""Index-backed LinkPredictor: exactness, tie determinism, bookkeeping."""

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
from repro.errors import ServingError, StaleIndexError
from repro.index.exact import ExactIndex
from repro.index.ivf import IVFIndex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor

pytestmark = pytest.mark.index

MAKERS = {
    "distmult": make_distmult,
    "complex": make_complex,
    "cp": make_cp,
    "cph": make_cph,
    "quaternion": make_quaternion,
}


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_kg(
        SyntheticKGConfig(
            num_entities=250, num_clusters=16, num_domains=4, seed=11, name="ix-test"
        )
    )


def _model(dataset, name="complex"):
    return MAKERS[name](
        dataset.num_entities, dataset.num_relations, 16, np.random.default_rng(21)
    )


class TestExhaustiveBitIdentity:
    """nprobe == nlist (and ExactIndex) must match index-free serving exactly."""

    @pytest.mark.parametrize("name", sorted(MAKERS))
    @pytest.mark.parametrize("filtered", [False, True])
    def test_ivf_full_probe_matches_plain_predictor(self, dataset, name, filtered):
        model = _model(dataset, name)
        plain = LinkPredictor(model, dataset)
        indexed = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=15, nprobe=15)
        )
        heads = dataset.test.heads[:12]
        relations = dataset.test.relations[:12]
        expected = plain.top_k(heads, relations, side="tail", k=8, filtered=filtered)
        got = indexed.top_k(heads, relations, side="tail", k=8, filtered=filtered)
        np.testing.assert_array_equal(expected.ids, got.ids)
        np.testing.assert_array_equal(expected.scores, got.scores)
        tails = dataset.test.tails[:12]
        expected = plain.top_k(tails, relations, side="head", k=8, filtered=filtered)
        got = indexed.top_k(tails, relations, side="head", k=8, filtered=filtered)
        np.testing.assert_array_equal(expected.ids, got.ids)
        np.testing.assert_array_equal(expected.scores, got.scores)

    def test_exact_index_matches_plain_predictor(self, dataset):
        model = _model(dataset)
        plain = LinkPredictor(model, dataset)
        indexed = LinkPredictor(model, dataset, index=ExactIndex(model))
        heads = dataset.test.heads[:20]
        relations = dataset.test.relations[:20]
        expected = plain.top_k(heads, relations, side="tail", k=10, filtered=True)
        got = indexed.top_k(heads, relations, side="tail", k=10, filtered=True)
        np.testing.assert_array_equal(expected.ids, got.ids)
        np.testing.assert_array_equal(expected.scores, got.scores)
        stats = indexed.index_stats_dict()
        assert stats["probed_fraction"] == 1.0
        assert stats["exhaustive_queries"] == 20


class TestTieDeterminism:
    """The approximate path must keep the lower-id tie rule."""

    def test_rows_sorted_desc_ties_toward_lower_id(self, dataset):
        model = _model(dataset)
        predictor = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=15, nprobe=4, spill=2)
        )
        result = predictor.top_k(
            dataset.test.heads[:40], dataset.test.relations[:40], side="tail", k=10,
            filtered=True,
        )
        for row_ids, row_scores in zip(result.ids, result.scores):
            real = row_ids >= 0
            assert (np.diff(row_scores[real]) <= 0).all()
            for col in range(len(row_ids) - 1):
                if (
                    row_ids[col] >= 0
                    and row_ids[col + 1] >= 0
                    and row_scores[col] == row_scores[col + 1]
                    and np.isfinite(row_scores[col])
                ):
                    assert row_ids[col] < row_ids[col + 1]

    def test_degenerate_all_tied_scores_rank_by_id(self, dataset):
        """Bitwise-equal scores (zero embeddings ⇒ exact 0.0 everywhere)
        must come back in ascending-id order — the lower-id tie rule."""
        model = _model(dataset)
        model.entity_embeddings[:] = 0.0
        model._bump_scoring_version()
        index = IVFIndex(model, nlist=15, nprobe=3)
        predictor = LinkPredictor(model, dataset, index=index)
        result = predictor.top_k([5], [0], side="tail", k=10)
        batch = index.candidate_lists([5], [0], "tail")
        np.testing.assert_array_equal(result.ids[0], batch.rows[0][:10])
        assert (result.scores[0] == 0.0).all()

    def test_repeated_calls_identical(self, dataset):
        model = _model(dataset)
        predictor = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=15, nprobe=4)
        )
        first = predictor.top_k([3, 9], [0, 2], side="tail", k=6)
        second = predictor.top_k([3, 9], [0, 2], side="tail", k=6)
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.scores, second.scores)


class TestApproximateBehaviour:
    def test_scores_are_true_model_scores(self, dataset):
        model = _model(dataset)
        predictor = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=15, nprobe=4), cache_size=0
        )
        result = predictor.top_k([4], [1], side="tail", k=5)
        expected = model.score_triples(
            np.full(5, 4), result.ids[0], np.full(5, 1)
        )
        np.testing.assert_allclose(result.scores[0], expected, atol=1e-10)

    def test_short_rows_pad_with_minus_one(self, dataset):
        model = _model(dataset)
        predictor = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=125, nprobe=1, spill=1)
        )
        result = predictor.top_k([4], [1], side="tail", k=200)
        row = result.ids[0]
        assert (row >= 0).any()
        padded = row == -1
        assert padded.any()
        assert np.isneginf(result.scores[0][padded]).all()

    def test_name_level_predict_drops_pads(self, dataset):
        """predict() must not feed -1 pad ids into the vocabulary."""
        model = _model(dataset)
        predictor = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=125, nprobe=1, spill=1)
        )
        predictions = predictor.predict(
            head=dataset.entities.name(4),
            relation=dataset.relations.name(1),
            k=200,
        )
        assert 0 < len(predictions) < 200
        assert all(name.startswith("entity_") for name, _ in predictions)

    def test_explicit_candidates_bypass_index(self, dataset):
        model = _model(dataset)
        indexed = LinkPredictor(model, dataset, index=IVFIndex(model, nlist=15))
        plain = LinkPredictor(model, dataset)
        shortlist = np.arange(30)
        a = indexed.top_k([4], [1], side="tail", k=5, candidates=shortlist)
        b = plain.top_k([4], [1], side="tail", k=5, candidates=shortlist)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert indexed.index_stats_dict()["queries"] == 0

    def test_index_over_other_model_rejected(self, dataset):
        model = _model(dataset)
        other = _model(dataset)
        with pytest.raises(ServingError):
            LinkPredictor(model, dataset, index=IVFIndex(other, nlist=15))


class TestStalenessThroughTraining:
    def test_resumed_training_rebuilds(self, dataset):
        from repro.nn.optimizers import make_optimizer

        model = _model(dataset)
        index = IVFIndex(model, nlist=15, nprobe=4)
        predictor = LinkPredictor(model, dataset, index=index)
        predictor.top_k([1], [0], side="tail", k=5)
        positives = dataset.train.array[:32]
        negatives = positives.copy()
        negatives[:, 1] = (negatives[:, 1] + 7) % dataset.num_entities
        model.train_step(positives, negatives, make_optimizer("adam", 0.05))
        predictor.top_k([1], [0], side="tail", k=5)
        assert index.rebuilds == 1
        assert index.built_version == model.scoring_version

    def test_error_policy_propagates(self, dataset):
        model = _model(dataset)
        index = IVFIndex(model, nlist=15, nprobe=4, on_stale="error")
        predictor = LinkPredictor(model, dataset, index=index)
        predictor.top_k([1], [0], side="tail", k=5)
        model._bump_scoring_version()
        with pytest.raises(StaleIndexError):
            predictor.top_k([1], [0], side="tail", k=5)

    def test_clear_cache_invalidates_index(self, dataset):
        model = _model(dataset)
        index = IVFIndex(model, nlist=15, nprobe=4)
        predictor = LinkPredictor(model, dataset, index=index)
        predictor.top_k([1], [0], side="tail", k=5)
        assert index.built_partitions
        predictor.clear_cache()
        assert index.built_partitions == ()


class TestBookkeeping:
    def test_probed_fraction_sublinear(self, dataset):
        model = _model(dataset)
        predictor = LinkPredictor(
            model, dataset, index=IVFIndex(model, nlist=15, nprobe=2, spill=1)
        )
        predictor.top_k(
            dataset.test.heads[:25], dataset.test.relations[:25], side="tail", k=5
        )
        stats = predictor.index_stats_dict()
        assert stats["queries"] == 25
        assert 0.0 < stats["probed_fraction"] < 1.0

    def test_recall_sampling(self, dataset):
        model = _model(dataset)
        predictor = LinkPredictor(
            model,
            dataset,
            index=IVFIndex(model, nlist=15, nprobe=6),
            recall_sample_every=5,
        )
        predictor.top_k(
            dataset.test.heads[:20], dataset.test.relations[:20], side="tail", k=10
        )
        stats = predictor.index_stats_dict()
        assert stats["recall_checks"] == 4
        assert 0.0 <= stats["recall_estimate"] <= 1.0
        recall = predictor.metrics_snapshot().histograms["index.recall"]
        assert recall.count == 4
        assert stats["recall_estimate"] == recall.total / 4

    def test_no_index_no_stats(self, dataset):
        predictor = LinkPredictor(_model(dataset), dataset)
        assert predictor.index_stats_dict() is None
        assert not any(
            name.startswith("index.") for name in predictor.metrics_snapshot().counters
        )

    def test_probed_fraction_follows_the_grown_entity_table(self, dataset):
        """The ratio is rendered over the model's current entity count."""
        model = _model(dataset)
        predictor = LinkPredictor(model, dataset, index=ExactIndex(model))
        predictor.top_k([0, 1], [0, 0], side="tail", k=5)
        assert predictor.index_stats_dict()["probed_fraction"] == 1.0
        model.grow(model.num_entities * 2, model.num_relations)
        stats = predictor.index_stats_dict()
        assert stats["num_entities"] == model.num_entities
        assert stats["probed_fraction"] == 0.5
