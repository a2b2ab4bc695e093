"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_known_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "transformer"])

    def test_serve_refuses_retired_max_wait_ms(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "run", "--max-wait-ms", "2"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--max-wait-ms" in err


class TestWeightsCommand:
    def test_lists_presets_with_properties(self, capsys):
        assert main(["weights"]) == 0
        out = capsys.readouterr().out
        assert "complex" in out
        assert "quaternion" in out
        assert "good" in out and "poor" in out


class TestGenerateAndInspect:
    def test_generate_then_inspect(self, tmp_path, capsys):
        out_dir = tmp_path / "kg"
        assert main(["generate", str(out_dir), "--entities", "120",
                     "--clusters", "10", "--seed", "1"]) == 0
        generated = capsys.readouterr().out
        assert "entities" in generated
        assert (out_dir / "train.txt").exists()
        assert (out_dir / "valid.txt").exists()
        assert (out_dir / "test.txt").exists()

        assert main(["inspect", str(out_dir)]) == 0
        inspected = capsys.readouterr().out
        assert "inverse leakage" in inspected
        assert "hypernym" in inspected

    def test_inspect_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_on_synthetic(self, capsys):
        code = main([
            "train", "complex", "--entities", "100", "--total-dim", "8",
            "--epochs", "3", "--batch-size", "256", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MRR" in out
        assert "Hits@10" in out

    def test_train_on_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "kg"
        main(["generate", str(out_dir), "--entities", "100", "--clusters", "8"])
        capsys.readouterr()
        code = main([
            "train", "distmult", "--dataset", str(out_dir), "--total-dim", "8",
            "--epochs", "2", "--batch-size", "256", "--quiet",
        ])
        assert code == 0
        assert "DistMult" in capsys.readouterr().out
