"""Unit tests for :mod:`repro.paper_tables` (at toy scale)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval.metrics import RankingMetrics
from repro.kg.synthetic import SyntheticKGConfig
from repro.paper_tables import (
    TABLE2_ROWS,
    TABLE3_ROWS,
    format_table,
    run_table2,
    run_table3,
    run_table4,
)
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.runner import RunResult


@pytest.fixture(scope="module")
def settings():
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


class TestRowDefinitions:
    def test_table2_has_eight_rows(self):
        assert len(TABLE2_ROWS) == 8

    def test_table2_first_four_evaluate_train(self):
        assert all(with_train for _, _, with_train in TABLE2_ROWS[:4])
        assert not any(with_train for _, _, with_train in TABLE2_ROWS[4:])

    def test_table3_has_nine_rows(self):
        assert len(TABLE3_ROWS) == 9

    def test_table3_sparse_flags(self):
        sparse_count = sum(1 for _, _, sparse in TABLE3_ROWS if sparse)
        assert sparse_count == 4


class TestRunners:
    def test_run_table2_produces_all_rows(self, dataset, settings):
        rows = run_table2(settings, dataset)
        assert len(rows) == 8
        assert rows[0].config.label.startswith("DistMult")
        assert rows[0].train_metrics is not None
        assert rows[4].train_metrics is None
        assert all(0.0 <= row.test_metrics.mrr <= 1.0 for row in rows)

    def test_run_table3_returns_omega_snapshots(self, dataset, settings):
        rows = run_table3(settings, dataset)
        assert len(rows) == 9
        learned = [
            row.model.current_weight_vector()
            for row in rows
            if row.config.model.name == "learned"
        ]
        # eight learned variants (uniform row is fixed)
        assert len(learned) == 8
        for omega in learned:
            assert omega.tensor.shape == (2, 2, 2)

    def test_run_table4_pair(self, dataset, settings):
        quaternion_row, complex_row = run_table4(settings, dataset)
        assert "Quaternion" in quaternion_row.config.label
        assert quaternion_row.train_metrics is not None
        assert complex_row.train_metrics is None


class TestFormatTable:
    def _row(self, label, with_train=False):
        metrics = RankingMetrics(mrr=0.9, mr=2.0, hits={1: 0.8, 3: 0.9, 10: 1.0}, num_ranks=5)
        return RunResult(
            config=RunConfig(label=label),
            dataset=None,
            model=None,
            training=None,
            metrics={"test": metrics, **({"train": metrics} if with_train else {})},
        )

    def test_contains_labels_and_header(self):
        table = format_table("Table 2", [self._row("DistMult"), self._row("CP")])
        assert "Table 2" in table
        assert "DistMult" in table
        assert "MRR" in table

    def test_train_section_appended(self):
        table = format_table("T", [self._row("ComplEx", with_train=True)])
        assert "ComplEx on train" in table

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            format_table("T", [])


class TestCLITableCommand:
    def test_table_2_fast(self, capsys):
        from repro.cli import main

        code = main(["table", "2", "--entities", "100", "--total-dim", "8",
                     "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "CPh" in out
        assert "on train" in out

    def test_table_3_fast(self, capsys):
        from repro.cli import main

        code = main(["table", "3", "--entities", "100", "--total-dim", "8",
                     "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "learned omega snapshots" in out

    def test_config_reaches_every_row_unchanged(self, tmp_path, settings, capsys):
        """Outside model, label and evaluation.evaluate_train, each row runs
        exactly the config it is given."""
        from repro.cli import main

        data = settings.to_dict()
        data["training"].update(epochs=2, optimizer="sgd", negative_sampler="bernoulli")
        data["evaluation"]["split"] = "valid"
        data["storage"]["dtype"] = "float32"
        data["observability"]["enabled"] = True
        config_path = tmp_path / "table.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")

        code = main(["table", "4", "--config", str(config_path),
                     "--run-dir", str(tmp_path / "rows")])
        assert code == 0
        assert "Table 4" in capsys.readouterr().out

        def without_row_fields(config: dict) -> dict:
            config = json.loads(json.dumps(config))
            del config["model"], config["label"], config["evaluation"]["evaluate_train"]
            return config

        row_dirs = sorted((tmp_path / "rows").iterdir())
        assert len(row_dirs) == 2
        for row_dir in row_dirs:
            stored = json.loads((row_dir / "config.json").read_text(encoding="utf-8"))
            assert without_row_fields(stored) == without_row_fields(data)
            metrics = json.loads((row_dir / "metrics.json").read_text(encoding="utf-8"))
            assert "valid" in metrics and "test" not in metrics
            tables = sorted((row_dir / "checkpoint" / "store").glob("*_embeddings.npy"))
            assert tables
            for table in tables:
                assert np.load(table, mmap_mode="r").dtype == np.float32
            assert (row_dir / "telemetry.jsonl").exists()
