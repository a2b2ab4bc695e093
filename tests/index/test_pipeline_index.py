"""Index integration with the run pipeline, registries and CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.pipeline.components import INDEXES, build_index
from repro.pipeline.config import (
    DatasetSection,
    IndexSection,
    ModelSection,
    RunConfig,
    TrainingSection,
)
from repro.pipeline.runner import (
    build_run_index,
    load_run,
    load_run_index,
    run_pipeline,
    serve_run,
)

pytestmark = [pytest.mark.index, pytest.mark.pipeline]


def _config(index: IndexSection | None = None) -> RunConfig:
    return RunConfig(
        dataset=DatasetSection(
            generator="synthetic_wn18",
            params={
                "num_entities": 150,
                "num_clusters": 10,
                "num_domains": 3,
                "seed": 5,
            },
        ),
        model=ModelSection(name="complex", total_dim=16),
        training=TrainingSection(
            epochs=2, batch_size=256, validate_every=50, patience=50
        ),
        index=index or IndexSection(),
        seed=1,
    )


class TestIndexSection:
    def test_defaults_to_disabled(self):
        section = IndexSection()
        assert not section.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "faiss"},
            {"nlist": 0},
            {"nprobe": 0},
            {"nlist": 32, "nprobe": 64},
            {"seed": -1},
            {"iters": 0},
            {"spill": 0},
            {"on_stale": "ignore"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            IndexSection(**kwargs)

    def test_json_round_trip(self):
        config = _config(IndexSection(kind="ivf", nlist=9, nprobe=3, spill=1))
        restored = RunConfig.from_json(config.to_json())
        assert restored.index == config.index

    def test_old_configs_without_index_still_load(self):
        data = _config().to_dict()
        del data["index"]
        assert RunConfig.from_dict(data).index == IndexSection()

    def test_unknown_index_field_rejected(self):
        data = _config().to_dict()
        data["index"]["cells"] = 4
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)


class TestRegistry:
    def test_kinds_registered(self):
        assert "ivf" in INDEXES
        assert "exact" in INDEXES

    def test_build_index_none(self):
        assert build_index(object(), IndexSection()) is None

    def test_build_index_ivf_respects_section(self):
        from repro.core.models import make_complex
        from repro.index.ivf import IVFIndex

        model = make_complex(80, 3, 8, np.random.default_rng(1))
        index = build_index(model, IndexSection(kind="ivf", nlist=7, nprobe=2, spill=1))
        assert isinstance(index, IVFIndex)
        assert (index.nlist, index.nprobe, index.spill) == (7, 2, 1)


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ixrun") / "run"
        run_pipeline(
            _config(IndexSection(kind="ivf", nlist=8, nprobe=2)), run_dir=path
        )
        return path

    def test_index_persisted_next_to_checkpoint(self, run_dir):
        assert (run_dir / "index" / "meta.json").exists()
        assert (run_dir / "checkpoint").exists()

    def test_serve_run_auto_attaches_index(self, run_dir):
        predictor = serve_run(run_dir, index="auto")
        assert predictor.index is not None
        result = predictor.top_k([0, 1], [0, 0], side="tail", k=5)
        assert result.ids.shape == (2, 5)
        assert predictor.index_stats_dict()["queries"] == 2

    def test_serve_run_default_is_exact(self, run_dir):
        assert serve_run(run_dir).index is None

    def test_serve_run_rejects_bad_index_arg(self, run_dir):
        with pytest.raises(ConfigError):
            serve_run(run_dir, index="yes please")

    def test_loaded_index_matches_checkpoint_fingerprint(self, run_dir):
        loaded = load_run(run_dir)
        index = load_run_index(run_dir, loaded.model)
        assert index is not None
        assert index.built_partitions  # persisted partitions usable as-is

    def test_exact_kind_persists_end_to_end(self, tmp_path):
        """kind="exact" must flow through build-and-save like IVF does."""
        path = tmp_path / "run"
        run_pipeline(_config(IndexSection(kind="exact")), run_dir=path)
        assert (path / "index" / "meta.json").exists()
        predictor = serve_run(path, index="auto")
        from repro.index.exact import ExactIndex

        assert isinstance(predictor.index, ExactIndex)
        plain = serve_run(path)
        a = predictor.top_k([0, 1], [0, 0], side="tail", k=5)
        b = plain.top_k([0, 1], [0, 0], side="tail", k=5)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_build_run_index_defaults_to_ivf(self, tmp_path):
        path = tmp_path / "run"
        run_pipeline(_config(), run_dir=path)  # index disabled in config
        assert load_run_index(path, load_run(path).model) is None
        index = build_run_index(path)
        assert index.kind == "ivf"
        assert (path / "index" / "meta.json").exists()


class TestCLI:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "run"
        run_pipeline(_config(), run_dir=path)
        return path

    def test_build_index_command(self, run_dir, capsys):
        assert main([
            "build-index", str(run_dir), "--nlist", "8", "--nprobe", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "IVFIndex" in out
        assert (run_dir / "index" / "meta.json").exists()

    def test_predict_with_index_and_stats(self, run_dir, capsys):
        loaded = load_run(run_dir)
        dataset = loaded.build_dataset()
        entity = dataset.entities.name(0)
        relation = dataset.relations.name(0)
        assert main([
            "predict", "--run-dir", str(run_dir), "--head", entity,
            "--relation", relation, "--index", "--stats", "-k", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "probed" in out
        assert "recall" in out

    def test_predict_index_requires_run_dir(self, run_dir, capsys):
        assert main([
            "predict", str(run_dir / "checkpoint"),
            "--dataset", "nowhere", "--index", "--head", "x", "--relation", "y",
        ]) == 2
        assert "run-dir" in capsys.readouterr().err

    def test_predict_stats_without_index(self, run_dir, capsys):
        loaded = load_run(run_dir)
        dataset = loaded.build_dataset()
        assert main([
            "predict", "--run-dir", str(run_dir),
            "--head", dataset.entities.name(1),
            "--relation", dataset.relations.name(0), "--stats",
        ]) == 0
        assert "cache" in capsys.readouterr().out
