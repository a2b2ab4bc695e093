"""Grid expansion and sweep reproducibility tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.sweep import apply_overrides, expand_grid, sweep

pytestmark = pytest.mark.pipeline


@pytest.fixture(scope="module")
def base() -> RunConfig:
    return RunConfig(
        dataset=DatasetSection(
            params={"num_entities": 100, "num_clusters": 8, "num_domains": 3, "seed": 1}
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=2, batch_size=256),
        seed=0,
    )


class TestExpandGrid:
    def test_empty_grid_is_one_point(self):
        assert expand_grid({}) == [{}]

    def test_product_and_order(self):
        points = expand_grid({"b": [1, 2], "a": ["x"]})
        # Keys are sorted, product is row-major over sorted keys.
        assert points == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]

    def test_order_independent_of_insertion(self):
        grid1 = {"training.epochs": [1, 2], "model.total_dim": [8, 16]}
        grid2 = {"model.total_dim": [8, 16], "training.epochs": [1, 2]}
        assert expand_grid(grid1) == expand_grid(grid2)

    def test_rejects_scalar_values(self):
        with pytest.raises(ConfigError, match="sequence"):
            expand_grid({"training.epochs": 5})
        with pytest.raises(ConfigError, match="sequence"):
            expand_grid({"model.name": "complex"})

    def test_rejects_empty_candidates(self):
        with pytest.raises(ConfigError, match="non-empty"):
            expand_grid({"training.epochs": []})


class TestApplyOverrides:
    def test_nested_paths(self, base):
        config = apply_overrides(
            base,
            {"training.learning_rate": 0.5, "model.total_dim": 16, "seed": 9},
        )
        assert config.training.learning_rate == 0.5
        assert config.model.total_dim == 16
        assert config.seed == 9
        assert base.training.learning_rate != 0.5  # original untouched

    def test_free_form_params_accept_new_keys(self, base):
        config = apply_overrides(base, {"dataset.params.num_entities": 150})
        assert config.dataset.params["num_entities"] == 150
        config = apply_overrides(base, {"model.options.transform": "tanh"})
        assert config.model.options["transform"] == "tanh"

    def test_unknown_path_raises(self, base):
        with pytest.raises(ConfigError, match="unknown config path"):
            apply_overrides(base, {"training.learning_rte": 0.5})
        with pytest.raises(ConfigError, match="unknown config path"):
            apply_overrides(base, {"optimizer.name": "adam"})

    def test_overrides_revalidate(self, base):
        with pytest.raises(ConfigError, match="learning_rate"):
            apply_overrides(base, {"training.learning_rate": -1.0})


class TestSweep:
    GRID = {"training.learning_rate": [0.02, 0.05], "model.name": ["distmult", "cph"]}

    def test_runs_every_point(self, base):
        runs = sweep(base, self.GRID)
        assert len(runs) == 4
        assert [run.index for run in runs] == [0, 1, 2, 3]
        assert len({run.label for run in runs}) == 4

    def test_reproducible_across_invocations(self, base, tmp_path):
        """Same grid spec + seed must give bit-identical per-run
        metrics and training histories on a second invocation."""
        first = sweep(base, self.GRID, seeds=[0], run_root=tmp_path / "first")
        second = sweep(base, self.GRID, seeds=[0], run_root=tmp_path / "second")
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            assert a.overrides == b.overrides
            assert a.config == b.config
            assert a.test_metrics.mrr == b.test_metrics.mrr
            assert a.test_metrics.mr == b.test_metrics.mr
            assert a.test_metrics.hits == b.test_metrics.hits
            assert _history_bytes(a) == _history_bytes(b)

    def test_seeds_cross_grid(self, base, tmp_path):
        runs = sweep(base, {"model.name": ["distmult"]}, seeds=[0, 1], run_root=tmp_path)
        assert len(runs) == 2
        assert [run.config.seed for run in runs] == [0, 1]
        # Different training seeds shuffle/sample differently.
        assert _history_bytes(runs[0]) != _history_bytes(runs[1])

    def test_run_root_persists_children(self, base, tmp_path):
        runs = sweep(base, {"model.name": ["distmult", "cph"]}, run_root=tmp_path)
        dirs = sorted(p.name for p in tmp_path.iterdir())
        assert len(dirs) == 2
        assert dirs[0].startswith("run000-")
        for run in runs:
            assert run.run_dir is not None
            assert (run.run_dir / "checkpoint" / "store" / "store.json").exists()

    def test_empty_seeds_rejected(self, base):
        with pytest.raises(ConfigError, match="seeds"):
            sweep(base, {}, seeds=[])


def _history_bytes(run) -> bytes:
    return (run.run_dir / "history.json").read_bytes()
