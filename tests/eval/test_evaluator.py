"""Unit tests for the link-prediction evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import KGEModel
from repro.errors import EvaluationError
from repro.eval.evaluator import LinkPredictionEvaluator


class OracleModel(KGEModel):
    """Scores a fixed set of triples 1.0 and everything else 0.0."""

    name = "oracle"

    def __init__(self, true_triples, num_entities, num_relations):
        self.true = {tuple(t) for t in true_triples}
        self.num_entities = num_entities
        self.num_relations = num_relations

    def score_triples(self, heads, tails, relations):
        return np.array(
            [1.0 if (h, t, r) in self.true else 0.0
             for h, t, r in zip(heads, tails, relations)]
        )

    def score_all_tails(self, heads, relations):
        return np.stack([
            np.array([1.0 if (h, e, r) in self.true else 0.0
                      for e in range(self.num_entities)])
            for h, r in zip(heads, relations)
        ])

    def score_all_heads(self, tails, relations):
        return np.stack([
            np.array([1.0 if (e, t, r) in self.true else 0.0
                      for e in range(self.num_entities)])
            for t, r in zip(tails, relations)
        ])

    def train_step(self, positives, negatives, optimizer):
        return 0.0


class TestOracleEvaluation:
    def test_oracle_with_filtering_gets_perfect_mrr(self, toy_dataset):
        all_triples = [tuple(t) for t in toy_dataset.all_triples()]
        model = OracleModel(all_triples, toy_dataset.num_entities, toy_dataset.num_relations)
        result = LinkPredictionEvaluator(toy_dataset).evaluate(model, "test")
        assert result.overall.mrr == pytest.approx(1.0)
        assert result.overall.hits[1] == pytest.approx(1.0)

    def test_raw_protocol_scores_lower_when_known_triples_compete(self, toy_dataset):
        """alice likes {bob, eve, dave-married}, so without filtering the
        oracle's competing true triples can push ranks down."""
        all_triples = [tuple(t) for t in toy_dataset.all_triples()]
        model = OracleModel(all_triples, toy_dataset.num_entities, toy_dataset.num_relations)
        filtered = LinkPredictionEvaluator(toy_dataset, filtered=True).evaluate(model, "valid")
        raw = LinkPredictionEvaluator(toy_dataset, filtered=False).evaluate(model, "valid")
        assert raw.overall.mrr <= filtered.overall.mrr

    def test_head_and_tail_sides_reported(self, toy_dataset):
        all_triples = [tuple(t) for t in toy_dataset.all_triples()]
        model = OracleModel(all_triples, toy_dataset.num_entities, toy_dataset.num_relations)
        result = LinkPredictionEvaluator(toy_dataset).evaluate(model, "test")
        assert result.tail_side.num_ranks == len(toy_dataset.test)
        assert result.head_side.num_ranks == len(toy_dataset.test)
        assert result.overall.num_ranks == 2 * len(toy_dataset.test)


class TestChunkingRegression:
    """Streaming chunk size must never change the metrics, bit for bit."""

    CHUNK_SIZES = (1, 7, 10_000)  # 10_000 >> any split: the full-batch case

    def _metrics_by_chunk_size(self, dataset, model, split="test"):
        results = {}
        for batch_size in self.CHUNK_SIZES:
            evaluator = LinkPredictionEvaluator(dataset, batch_size=batch_size)
            results[batch_size] = evaluator.evaluate(model, split)
        return results

    def test_trained_style_model_bit_identical(self, tiny_dataset):
        from repro.core.models import make_complex

        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            16,
            np.random.default_rng(31),
        )
        results = self._metrics_by_chunk_size(tiny_dataset, model)
        reference = results[self.CHUNK_SIZES[0]]
        for batch_size, result in results.items():
            assert result.overall.mrr == reference.overall.mrr, batch_size
            assert result.overall.mr == reference.overall.mr, batch_size
            assert result.overall.hits == reference.overall.hits, batch_size
            assert result.tail_side.mrr == reference.tail_side.mrr, batch_size
            assert result.head_side.mrr == reference.head_side.mrr, batch_size

    def test_tie_heavy_model_bit_identical(self, tiny_dataset):
        """The oracle's 0/1 scores tie almost everywhere — the worst case
        for any chunking bug that perturbs tie resolution."""
        all_triples = [tuple(t) for t in tiny_dataset.all_triples()]
        model = OracleModel(
            all_triples, tiny_dataset.num_entities, tiny_dataset.num_relations
        )
        results = self._metrics_by_chunk_size(tiny_dataset, model)
        reference = results[self.CHUNK_SIZES[0]]
        for batch_size, result in results.items():
            assert result.overall.mrr == reference.overall.mrr, batch_size
            assert result.overall.mr == reference.overall.mr, batch_size
            assert result.overall.hits == reference.overall.hits, batch_size


class TestEvaluatorMechanics:
    def test_unknown_split_raises(self, toy_dataset):
        model = OracleModel([], toy_dataset.num_entities, toy_dataset.num_relations)
        with pytest.raises(EvaluationError, match="unknown split"):
            LinkPredictionEvaluator(toy_dataset).evaluate(model, "dev")

    def test_empty_triples_raise(self, toy_dataset):
        from repro.kg.triples import TripleSet

        model = OracleModel([], toy_dataset.num_entities, toy_dataset.num_relations)
        evaluator = LinkPredictionEvaluator(toy_dataset)
        with pytest.raises(EvaluationError, match="empty"):
            evaluator.evaluate_triples(
                model, TripleSet.empty(toy_dataset.num_entities, toy_dataset.num_relations)
            )

    def test_max_triples_caps_workload(self, toy_dataset):
        all_triples = [tuple(t) for t in toy_dataset.all_triples()]
        model = OracleModel(all_triples, toy_dataset.num_entities, toy_dataset.num_relations)
        evaluator = LinkPredictionEvaluator(toy_dataset)
        result = evaluator.evaluate_triples(model, toy_dataset.train, max_triples=3)
        assert result.overall.num_ranks == 6  # 3 triples x 2 sides

    @pytest.mark.parametrize("workers", [0, 1, 2])
    @pytest.mark.parametrize("max_triples", [0, -5])
    def test_max_triples_below_one_raises(self, toy_dataset, max_triples, workers):
        model = OracleModel([], toy_dataset.num_entities, toy_dataset.num_relations)
        evaluator = LinkPredictionEvaluator(toy_dataset, workers=workers)
        with pytest.raises(EvaluationError, match="max_triples"):
            evaluator.evaluate_triples(model, toy_dataset.train, max_triples=max_triples)

    def test_batch_size_does_not_change_result(self, toy_dataset):
        all_triples = [tuple(t) for t in toy_dataset.all_triples()]
        model = OracleModel(all_triples, toy_dataset.num_entities, toy_dataset.num_relations)
        big = LinkPredictionEvaluator(toy_dataset, batch_size=512).evaluate(model, "test")
        tiny = LinkPredictionEvaluator(toy_dataset, batch_size=1).evaluate(model, "test")
        assert big.overall.mrr == pytest.approx(tiny.overall.mrr)

    def test_bad_batch_size_raises(self, toy_dataset):
        with pytest.raises(EvaluationError):
            LinkPredictionEvaluator(toy_dataset, batch_size=0)

    def test_split_name_recorded(self, toy_dataset):
        all_triples = [tuple(t) for t in toy_dataset.all_triples()]
        model = OracleModel(all_triples, toy_dataset.num_entities, toy_dataset.num_relations)
        result = LinkPredictionEvaluator(toy_dataset).evaluate(model, "valid")
        assert result.split == "valid"
