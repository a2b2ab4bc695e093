"""A model built outside the pipeline runs through ``train_and_evaluate``."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.kg.synthetic import SyntheticKGConfig
from repro.pipeline.config import (
    DatasetSection,
    EvalSection,
    ModelSection,
    RunConfig,
    TrainingSection,
)
from repro.pipeline.runner import train_and_evaluate


@pytest.fixture(scope="module")
def settings():
    return RunConfig(
        dataset=DatasetSection(
            params=dataclasses.asdict(
                SyntheticKGConfig(num_entities=120, num_clusters=10, num_domains=4, seed=3)
            )
        ),
        model=ModelSection(total_dim=8),
        training=TrainingSection(epochs=3, batch_size=256),
    )


def _model(settings, dataset):
    return make_complex(
        dataset.num_entities, dataset.num_relations,
        total_dim=settings.model.total_dim,
        rng=np.random.default_rng(settings.model_init_seed),
    )


class TestSettings:
    def test_training_config_mirrors_settings(self, settings):
        config = settings.training.training_config(seed=settings.seed)
        assert config.epochs == 3
        assert config.batch_size == 256
        assert config.num_negatives == settings.training.num_negatives
        assert config.seed == settings.seed

    def test_build_dataset_deterministic(self, settings):
        a = settings.dataset.build()
        b = settings.dataset.build()
        assert a.train.array.tolist() == b.train.array.tolist()

    def test_seed_offsets_draw_different_streams(self, settings):
        offset = dataclasses.replace(
            settings, model=dataclasses.replace(settings.model, seed_offset=1)
        )
        a = np.random.default_rng(settings.model_init_seed).normal()
        b = np.random.default_rng(offset.model_init_seed).normal()
        assert a != b


class TestRunRow:
    def test_produces_metrics(self, settings):
        dataset = settings.dataset.build()
        model = _model(settings, dataset)
        config = dataclasses.replace(settings, evaluation=EvalSection(evaluate_train=True))
        row = train_and_evaluate(config, dataset, model)
        assert 0.0 <= row.test_metrics.mrr <= 1.0
        assert row.train_metrics is not None
        assert row.epochs_run == 3
        assert row.model is model

    def test_custom_label(self, settings):
        dataset = settings.dataset.build()
        model = _model(settings, dataset)
        row = train_and_evaluate(dataclasses.replace(settings, label="Row A"), dataset, model)
        assert row.config.label == "Row A"
