"""Unit tests for the declarative RunConfig tree and its validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import (
    DatasetSection,
    EvalSection,
    IngestSection,
    ModelSection,
    ParallelSection,
    RunConfig,
    ServingSection,
    TrainingSection,
)
from repro.training.trainer import TrainingConfig

pytestmark = pytest.mark.pipeline


def toy_config(**overrides) -> RunConfig:
    base = dict(
        dataset=DatasetSection(
            params={"num_entities": 120, "num_clusters": 10, "num_domains": 4, "seed": 3}
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=2, batch_size=256),
        evaluation=EvalSection(),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestSections:
    def test_defaults_valid(self):
        RunConfig()

    def test_unknown_generator(self):
        with pytest.raises(ConfigError, match="dataset.generator"):
            DatasetSection(generator="wn18_real")

    def test_unknown_model_name(self):
        with pytest.raises(ConfigError, match="model.name"):
            ModelSection(name="transformer")

    def test_omega_preset_is_valid_model_name(self):
        assert ModelSection(name="bad_example_1").name == "bad_example_1"

    def test_omega_prefix_forces_preset_resolution(self):
        assert ModelSection(name="omega:distmult").name == "omega:distmult"
        with pytest.raises(ConfigError, match="model.name"):
            ModelSection(name="omega:learned")  # a factory, not a preset

    def test_model_ranges(self):
        with pytest.raises(ConfigError, match="model.total_dim"):
            ModelSection(total_dim=0)
        with pytest.raises(ConfigError, match="model.regularization"):
            ModelSection(regularization=-1.0)

    def test_training_bad_optimizer(self):
        with pytest.raises(ConfigError, match="optimizer"):
            TrainingSection(optimizer="rmsprop")

    def test_training_bad_sampler(self):
        with pytest.raises(ConfigError, match="negative_sampler"):
            TrainingSection(negative_sampler="adversarial")

    def test_eval_split(self):
        with pytest.raises(ConfigError, match="evaluation.split"):
            EvalSection(split="train")
        with pytest.raises(ConfigError, match="train_eval_triples"):
            EvalSection(train_eval_triples=0)

    def test_sections_must_be_typed(self):
        with pytest.raises(ConfigError, match="RunConfig.model"):
            RunConfig(model={"name": "complex"})


class TestTightenedTrainingValidation:
    """Satellite: field-named errors for the sharpened TrainingConfig checks."""

    def test_learning_rate_must_be_positive(self):
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            TrainingConfig(learning_rate=-0.1)

    def test_patience_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="patience must be >= 0"):
            TrainingConfig(patience=-1)

    def test_validate_every_must_be_at_least_one(self):
        with pytest.raises(ConfigError, match="validate_every must be >= 1"):
            TrainingConfig(validate_every=0)

    def test_unknown_optimizer_named(self):
        with pytest.raises(ConfigError, match="optimizer"):
            TrainingConfig(optimizer="rmsprop")


class TestIngestSection:
    def test_defaults_valid_and_splat_into_ingest_delta(self):
        import inspect

        from repro.ingest import ingest_delta

        section = IngestSection()
        knobs = section.ingest_kwargs()
        accepted = set(inspect.signature(ingest_delta).parameters)
        assert set(knobs) <= accepted, "section fields must mirror ingest_delta"

    def test_epochs_zero_allowed_negative_rejected(self):
        assert IngestSection(epochs=0).epochs == 0
        with pytest.raises(ConfigError, match="ingest.epochs"):
            IngestSection(epochs=-1)

    def test_unknown_optimizer_named(self):
        with pytest.raises(ConfigError, match="ingest.optimizer"):
            IngestSection(optimizer="sgd_with_momentum_v2")

    def test_unknown_initializer_named(self):
        with pytest.raises(ConfigError, match="ingest.grow_initializer"):
            IngestSection(grow_initializer="xavier_cubed")

    def test_drift_threshold_bounds(self):
        IngestSection(drift_threshold=1.0)
        with pytest.raises(ConfigError, match="drift_threshold"):
            IngestSection(drift_threshold=0.0)
        with pytest.raises(ConfigError, match="drift_threshold"):
            IngestSection(drift_threshold=1.5)

    def test_run_config_round_trips_ingest_section(self):
        config = toy_config(ingest=IngestSection(epochs=5, drift_threshold=0.3))
        restored = RunConfig.from_json(config.to_json())
        assert restored.ingest == config.ingest
        assert restored.ingest.epochs == 5

    def test_unknown_ingest_field_named(self):
        with pytest.raises(ConfigError, match="ingest field.*'warmup'"):
            RunConfig.from_dict({"ingest": {"warmup": 3}})


class TestSerialization:
    def test_json_round_trip(self):
        config = toy_config(label="round-trip")
        assert RunConfig.from_json(config.to_json()) == config

    def test_save_load_round_trip(self, tmp_path):
        config = toy_config(seed=7)
        path = config.save(tmp_path / "configs" / "run.json")
        assert path.exists()
        assert RunConfig.load(path) == config

    def test_from_dict_defaults(self):
        config = RunConfig.from_dict({"model": {"name": "cph"}})
        assert config.model.name == "cph"
        assert config.training.epochs == TrainingSection().epochs

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="run config.*'modle'"):
            RunConfig.from_dict({"modle": {}})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="training field.*'learning_rte'"):
            RunConfig.from_dict({"training": {"learning_rte": 0.1}})

    @pytest.mark.parametrize("axis", ["triples", "entities"])
    def test_retired_shard_axis_still_loads(self, axis):
        config = RunConfig.from_dict(
            {"parallel": {"eval_shards": 2, "eval_workers": 1, "shard_axis": axis}}
        )
        assert config.parallel == ParallelSection(eval_shards=2, eval_workers=1)
        assert "shard_axis" not in config.to_json()

    def test_unknown_parallel_key_named(self):
        with pytest.raises(ConfigError, match="parallel field.*'bogus'"):
            RunConfig.from_dict({"parallel": {"bogus": 1}})

    def test_retired_max_wait_ms_still_loads(self):
        config = RunConfig.from_dict({"serving": {"max_batch": 32, "max_wait_ms": 2.0}})
        assert config.serving == ServingSection(max_batch=32)
        assert "max_wait_ms" not in config.to_json()

    def test_unknown_serving_key_named(self):
        with pytest.raises(ConfigError, match="serving field.*'bogus'"):
            RunConfig.from_dict({"serving": {"bogus": 1}})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_json("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            RunConfig.load(tmp_path / "nope.json")

    def test_non_integer_seed_named(self):
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            RunConfig.from_dict({"seed": None})
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            RunConfig.from_dict({"seed": "7"})

    def test_settings_round_trip_keeps_optimizer_and_sampler(self, tmp_path):
        config = toy_config(
            training=TrainingSection(epochs=2, optimizer="sgd", negative_sampler="bernoulli")
        )
        back = RunConfig.load(config.save(tmp_path / "run.json"))
        assert back.training.optimizer == "sgd"
        assert back.training.negative_sampler == "bernoulli"
        assert back.training.training_config(seed=back.seed).optimizer == "sgd"


class TestSeeding:
    def test_model_init_seed_derivation(self):
        config = toy_config(seed=5)
        assert config.model_init_seed == 5 + 1000

    def test_seed_offset(self):
        config = toy_config(seed=5, model=ModelSection(name="cp", seed_offset=3))
        assert config.model_init_seed == 5 + 1000 + 3

    def test_explicit_init_seed_wins(self):
        config = toy_config(model=ModelSection(name="cp", init_seed=42, seed_offset=3))
        assert config.model_init_seed == 42
