"""run_pipeline + run-directory round-trip tests.

The central guarantee: a run directory written by ``run_pipeline`` can
be reloaded, re-evaluated (bit-identical metrics), and served without
retraining.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.learned import LearnedWeightModel
from repro.errors import ConfigError, ModelError
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.runner import (
    build_model,
    evaluate_run,
    load_run,
    run_pipeline,
    serve_run,
)

pytestmark = pytest.mark.pipeline


@pytest.fixture(scope="module")
def config() -> RunConfig:
    return RunConfig(
        dataset=DatasetSection(
            params={"num_entities": 120, "num_clusters": 10, "num_domains": 4, "seed": 3}
        ),
        model=ModelSection(name="cph", total_dim=8),
        training=TrainingSection(epochs=3, batch_size=256),
        seed=0,
        label="round-trip",
    )


@pytest.fixture(scope="module")
def run(config, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("runs") / "cph"
    return run_pipeline(config, run_dir=run_dir)


class TestRunPipeline:
    def test_produces_metrics_and_history(self, run):
        assert 0.0 <= run.test_metrics.mrr <= 1.0
        assert run.epochs_run == 3
        assert len(run.training.history) == 3
        assert run.model.name == "CPh"

    def test_preset_name_builds_model(self, config):
        data = config.to_dict()
        data["model"]["name"] = "good_example_1"
        preset_config = RunConfig.from_dict(data)
        dataset = preset_config.dataset.build()
        model = build_model(preset_config, dataset)
        assert model.name == "Good example 1"

    def test_learned_model_with_options(self, config):
        data = config.to_dict()
        data["model"]["name"] = "learned"
        data["model"]["options"] = {"transform": "tanh", "sparse": True}
        learned_config = RunConfig.from_dict(data)
        dataset = learned_config.dataset.build()
        model = build_model(learned_config, dataset)
        assert isinstance(model, LearnedWeightModel)
        assert model.transform.name == "tanh"
        assert model.sparsity is not None

    def test_loss_option_resolves_through_registry(self, config):
        data = config.to_dict()
        data["model"]["options"] = {"loss": "logistic"}
        dataset_config = RunConfig.from_dict(data)
        dataset = dataset_config.dataset.build()
        model = build_model(dataset_config, dataset)
        assert model.loss.name == "logistic"

    def test_pairwise_loss_rejected_at_construction(self, config):
        """margin ranking lacks grad_score; fail before training starts."""
        data = config.to_dict()
        data["model"]["options"] = {"loss": "margin"}
        bad_config = RunConfig.from_dict(data)
        dataset = bad_config.dataset.build()
        with pytest.raises(ConfigError, match="grad_score"):
            build_model(bad_config, dataset)

    def test_omega_prefix_reaches_shadowed_preset(self, config):
        """'distmult' is the n=1 factory; 'omega:distmult' the 2-embedding preset."""
        data = config.to_dict()
        data["model"]["name"] = "distmult"
        dataset = RunConfig.from_dict(data).dataset.build()
        factory_model = build_model(RunConfig.from_dict(data), dataset)
        data["model"]["name"] = "omega:distmult"
        preset_model = build_model(RunConfig.from_dict(data), dataset)
        assert factory_model.entity_embeddings.shape[1] == 1  # one vector, full dim
        assert preset_model.entity_embeddings.shape[1] == 2  # Table 1 derivation
        assert factory_model.dim == 2 * preset_model.dim


class TestRunDirectory:
    def test_artifact_files(self, run):
        assert (run.run_dir / "config.json").exists()
        assert (run.run_dir / "checkpoint" / "store" / "entity_embeddings.npy").exists()
        assert (run.run_dir / "checkpoint" / "meta.json").exists()
        assert (run.run_dir / "history.json").exists()
        assert (run.run_dir / "metrics.json").exists()

    def test_config_reloads_identically(self, run, config):
        assert load_run(run.run_dir).config == config

    def test_history_json_matches(self, run):
        stored = json.loads((run.run_dir / "history.json").read_text())
        assert stored["epochs_run"] == run.epochs_run
        assert [r["loss"] for r in stored["records"]] == run.training.history.losses

    def test_stored_metrics_match_in_memory(self, run):
        loaded = load_run(run.run_dir)
        assert set(loaded.metrics) == set(run.metrics)
        for split, metrics in run.metrics.items():
            assert loaded.metrics[split].mrr == metrics.mrr
            assert loaded.metrics[split].hits == metrics.hits

    def test_reevaluation_is_bit_identical(self, run):
        """Reload checkpoint + config, regenerate the dataset, evaluate:
        every metric must equal the in-memory RunResult exactly."""
        recomputed = evaluate_run(run.run_dir)
        assert set(recomputed) == set(run.metrics)
        for split in run.metrics:
            assert recomputed[split].mrr == run.metrics[split].mrr
            assert recomputed[split].mr == run.metrics[split].mr
            assert recomputed[split].hits == run.metrics[split].hits
            assert recomputed[split].num_ranks == run.metrics[split].num_ranks

    def test_serve_run_without_retraining(self, run):
        predictor = serve_run(run.run_dir)
        result = predictor.top_k([0], [0], side="tail", k=5)
        assert result.ids.shape == (1, 5)
        assert np.isfinite(result.scores).any()

    def test_load_run_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(ModelError, match="not a pipeline run directory"):
            load_run(tmp_path)

    def test_baseline_models_not_checkpointable(self, config):
        from repro.baselines import TransE
        from repro.pipeline.runner import train_and_evaluate

        dataset = config.dataset.build()
        model = TransE(dataset.num_entities, dataset.num_relations, dim=8,
                       rng=np.random.default_rng(0))
        with pytest.raises(ConfigError, match="checkpointable"):
            train_and_evaluate(config, dataset, model, run_dir="/tmp/should-not-exist")


class TestCLIIntegration:
    def test_train_run_dir_then_predict(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "run"
        code = main([
            "train", "complex", "--entities", "100", "--total-dim", "8",
            "--epochs", "2", "--batch-size", "256", "--quiet",
            "--run-dir", str(run_dir),
        ])
        assert code == 0
        assert "run artifacts written" in capsys.readouterr().out
        assert (run_dir / "checkpoint" / "store" / "entity_embeddings.npy").exists()

        # predict straight from the run directory: no --dataset, no retraining.
        loaded = load_run(run_dir)
        dataset = loaded.build_dataset()
        head = dataset.entities.name(0)
        relation = dataset.relations.name(0)
        code = main([
            "predict", "--run-dir", str(run_dir),
            "--head", head, "--relation", relation, "-k", "3",
        ])
        assert code == 0
        assert "top-3 tail candidates" in capsys.readouterr().out

    def test_train_with_config_file(self, tmp_path, capsys):
        from repro.cli import main

        config = RunConfig(
            dataset=DatasetSection(
                params={"num_entities": 100, "num_clusters": 8, "num_domains": 3, "seed": 1}
            ),
            model=ModelSection(name="distmult", total_dim=8),
            training=TrainingSection(epochs=2, batch_size=256),
        )
        path = config.save(tmp_path / "run.json")
        assert main(["train", "--config", str(path)]) == 0
        assert "MRR" in capsys.readouterr().out

    def test_predict_without_sources_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["predict"]) == 2
        assert "checkpoint directory or --run-dir" in capsys.readouterr().err
