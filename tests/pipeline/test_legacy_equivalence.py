"""Regression: pipeline metrics are bit-identical to the pre-refactor path.

The harness that predates the pipeline wired dataset → model → Trainer →
evaluator by hand; these tests inline that exact recipe — same RNG
streams, same call order — and assert the declarative pipeline
reproduces it float-for-float for the paper-table row shapes (fixed-ω
rows, the n=1 DistMult special case, and learned-ω rows).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.models import make_distmult, make_learned_weight_model, make_model
from repro.core.weights import PRESETS
from repro.eval.evaluator import LinkPredictionEvaluator
from repro.kg.synthetic import SyntheticKGConfig
from repro.paper_tables import TABLE2_ROWS, run_table2
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.runner import run_pipeline, train_and_evaluate
from repro.training.trainer import Trainer

pytestmark = pytest.mark.pipeline


@pytest.fixture(scope="module")
def settings() -> RunConfig:
    return RunConfig(
        dataset=DatasetSection(
            params=dataclasses.asdict(
                SyntheticKGConfig(num_entities=100, num_clusters=8, num_domains=3, seed=5)
            )
        ),
        model=ModelSection(total_dim=8),
        training=TrainingSection(epochs=3, batch_size=256),
    )


@pytest.fixture(scope="module")
def dataset(settings):
    return settings.dataset.build()


def row_config(settings, model, evaluate_train=False):
    """*settings* with one row's model section and evaluate-train flag."""
    return dataclasses.replace(
        settings,
        model=model,
        evaluation=dataclasses.replace(settings.evaluation, evaluate_train=evaluate_train),
    )


def legacy_row(model, dataset, settings, evaluate_train=False):
    """The pre-refactor recipe, verbatim: manual Trainer + evaluator."""
    trainer = Trainer(dataset, settings.training.training_config(seed=settings.seed))
    result = trainer.train(model)
    evaluator = LinkPredictionEvaluator(dataset)
    test_metrics = evaluator.evaluate(model, split="test").overall
    train_metrics = None
    if evaluate_train:
        train_metrics = evaluator.evaluate_triples(
            model, dataset.train, split_name="train",
            max_triples=settings.evaluation.train_eval_triples,
        ).overall
    return test_metrics, train_metrics, result.epochs_run


def assert_metrics_equal(a, b):
    assert a.mrr == b.mrr
    assert a.mr == b.mr
    assert a.hits == b.hits
    assert a.num_ranks == b.num_ranks


class TestPipelineMatchesLegacyPath:
    def test_fixed_omega_row(self, dataset, settings):
        offset = 3  # the CPh row of Table 2
        legacy_model = make_model(
            PRESETS.get("cph"), dataset.num_entities, dataset.num_relations,
            np.random.default_rng(settings.seed + 1000 + offset),
            total_dim=settings.model.total_dim, regularization=settings.model.regularization,
        )
        legacy_test, legacy_train, legacy_epochs = legacy_row(
            legacy_model, dataset, settings, evaluate_train=True
        )

        config = row_config(
            settings,
            ModelSection(
                name="cph", total_dim=settings.model.total_dim,
                regularization=settings.model.regularization, seed_offset=offset,
            ),
            evaluate_train=True,
        )
        result = run_pipeline(config, dataset=dataset)
        assert_metrics_equal(result.test_metrics, legacy_test)
        assert_metrics_equal(result.train_metrics, legacy_train)
        assert result.epochs_run == legacy_epochs

    def test_distmult_n1_row(self, dataset, settings):
        """The n=1 special case: make_distmult vs the distmult_n1 preset."""
        legacy_model = make_distmult(
            dataset.num_entities, dataset.num_relations, settings.model.total_dim,
            np.random.default_rng(settings.seed + 1000),
            regularization=settings.model.regularization,
        )
        legacy_test, _, _ = legacy_row(legacy_model, dataset, settings)

        config = row_config(
            settings,
            ModelSection(
                name="distmult_n1", total_dim=settings.model.total_dim,
                regularization=settings.model.regularization,
            ),
        )
        result = run_pipeline(config, dataset=dataset)
        assert_metrics_equal(result.test_metrics, legacy_test)

    def test_learned_omega_row(self, dataset, settings):
        offset = 101
        legacy_model = make_learned_weight_model(
            dataset.num_entities, dataset.num_relations, settings.model.total_dim,
            np.random.default_rng(settings.seed + 1000 + offset),
            transform="tanh", sparse=True, regularization=settings.model.regularization,
        )
        legacy_test, _, _ = legacy_row(legacy_model, dataset, settings)
        legacy_omega = legacy_model.current_weight_vector()

        config = row_config(
            settings,
            ModelSection(
                name="learned", total_dim=settings.model.total_dim,
                regularization=settings.model.regularization, seed_offset=offset,
                options={"transform": "tanh", "sparse": True},
            ),
        )
        result = run_pipeline(config, dataset=dataset)
        assert_metrics_equal(result.test_metrics, legacy_test)
        assert np.array_equal(
            result.model.current_weight_vector().tensor, legacy_omega.tensor
        )

    def test_train_and_evaluate_matches_pipeline(self, dataset, settings):
        """A model built outside the pipeline and run_pipeline share one engine."""
        shim_model = make_model(
            PRESETS.get("complex"), dataset.num_entities, dataset.num_relations,
            np.random.default_rng(settings.seed + 1000),
            total_dim=settings.model.total_dim, regularization=settings.model.regularization,
        )
        shim = train_and_evaluate(dataclasses.replace(settings, label="X"), dataset, shim_model)

        config = row_config(
            settings,
            ModelSection(
                name="complex", total_dim=settings.model.total_dim,
                regularization=settings.model.regularization,
            ),
        )
        result = run_pipeline(config, dataset=dataset)
        assert_metrics_equal(result.test_metrics, shim.test_metrics)

    def test_table2_full_sweep_matches_legacy(self, dataset, settings):
        """Every Table 2 row through the pipeline vs the manual loop."""
        legacy = []
        for offset, (label, name, with_train) in enumerate(TABLE2_ROWS):
            rng = np.random.default_rng(settings.seed + 1000 + offset)
            if name == "distmult_n1":
                model = make_distmult(
                    dataset.num_entities, dataset.num_relations, settings.model.total_dim,
                    rng, regularization=settings.model.regularization,
                )
            else:
                model = make_model(
                    PRESETS.get(name), dataset.num_entities, dataset.num_relations,
                    rng, total_dim=settings.model.total_dim,
                    regularization=settings.model.regularization,
                )
            test_metrics, train_metrics, _ = legacy_row(
                model, dataset, settings, evaluate_train=with_train
            )
            legacy.append((label, test_metrics, train_metrics))

        rows = run_table2(settings, dataset)
        assert len(rows) == len(legacy)
        for row, (label, test_metrics, train_metrics) in zip(rows, legacy):
            assert row.config.label == label
            assert_metrics_equal(row.test_metrics, test_metrics)
            if train_metrics is None:
                assert row.train_metrics is None
            else:
                assert_metrics_equal(row.train_metrics, train_metrics)
