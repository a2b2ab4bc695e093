"""Unit tests for model checkpointing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import weights as W
from repro.core.learned import LearnedWeightModel
from repro.core.models import make_learned_weight_model, make_model, make_quaternion
from repro.core.serialization import load_model, save_model
from repro.errors import ModelError
from repro.nn.optimizers import Adam
from repro.nn.regularizers import DirichletSparsityRegularizer

NE, NR, DIM = 12, 3, 4


def _assert_scores_equal(a, b):
    rng = np.random.default_rng(0)
    heads = rng.integers(0, NE, 10)
    tails = rng.integers(0, NE, 10)
    rels = rng.integers(0, NR, 10)
    assert np.allclose(a.score_triples(heads, tails, rels),
                       b.score_triples(heads, tails, rels))


class TestRoundTrip:
    def test_fixed_weight_model(self, tmp_path, rng):
        model = make_model(W.COMPLEX, NE, NR, rng, dim=DIM, regularization=0.01)
        save_model(model, tmp_path / "ckpt")
        restored = load_model(tmp_path / "ckpt")
        _assert_scores_equal(model, restored)
        assert restored.name == model.name
        assert restored.weights.name == "ComplEx"
        assert restored.regularizer.strength == pytest.approx(0.01)

    def test_quaternion_model(self, tmp_path, rng):
        model = make_quaternion(NE, NR, 16, rng)
        save_model(model, tmp_path / "q")
        _assert_scores_equal(model, load_model(tmp_path / "q"))

    def test_learned_model_with_sparsity(self, tmp_path, rng):
        model = make_learned_weight_model(NE, NR, total_dim=8, rng=rng,
                                          transform="sigmoid", sparse=True)
        # perturb rho so we verify the cached omega is rebuilt on load
        model.rho += 0.3
        model._omega_cache = model.transform.forward(model.rho)
        save_model(model, tmp_path / "learned")
        restored = load_model(tmp_path / "learned")
        assert isinstance(restored, LearnedWeightModel)
        assert np.allclose(restored.rho, model.rho)
        assert np.allclose(restored.omega, model.omega)
        assert restored.sparsity is not None
        assert restored.sparsity.alpha == pytest.approx(1 / 16)
        _assert_scores_equal(model, restored)

    def test_trained_model_round_trip(self, tmp_path, rng):
        model = make_model(W.CPH, NE, NR, rng, dim=DIM)
        model.train_step(np.array([[0, 1, 0]]), np.array([[0, 2, 0]]),
                         Adam(learning_rate=0.1))
        save_model(model, tmp_path / "trained")
        _assert_scores_equal(model, load_model(tmp_path / "trained"))

    def test_restored_model_is_trainable(self, tmp_path, rng):
        model = make_model(W.COMPLEX, NE, NR, rng, dim=DIM)
        save_model(model, tmp_path / "m")
        restored = load_model(tmp_path / "m")
        loss = restored.train_step(np.array([[0, 1, 0]]), np.array([[0, 2, 0]]),
                                   Adam(learning_rate=0.1))
        assert np.isfinite(loss)


class TestErrors:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ModelError, match="not a model checkpoint"):
            load_model(tmp_path / "missing")

    def test_bad_version_raises(self, tmp_path, rng):
        model = make_model(W.CP, NE, NR, rng, dim=DIM)
        save_model(model, tmp_path / "v")
        meta = (tmp_path / "v" / "meta.json")
        meta.write_text(meta.read_text().replace('"format_version": 1',
                                                 '"format_version": 99'))
        with pytest.raises(ModelError, match="version"):
            load_model(tmp_path / "v")

    def test_unknown_class_raises(self, tmp_path, rng):
        model = make_model(W.CP, NE, NR, rng, dim=DIM)
        save_model(model, tmp_path / "c")
        meta = (tmp_path / "c" / "meta.json")
        meta.write_text(meta.read_text().replace("MultiEmbeddingModel", "Transformer"))
        with pytest.raises(ModelError, match="unknown model class"):
            load_model(tmp_path / "c")


class TestRetiredEngineFlag:
    """Checkpoints from when a second, dense-einsum engine existed record
    ``use_compiled_kernel`` in their meta; they load onto the one engine."""

    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("kind", ["fixed", "learned"])
    def test_recorded_flag_loads_and_scores_like_a_new_save(
        self, tmp_path, rng, recorded, kind
    ):
        if kind == "fixed":
            model = make_model(W.CPH, NE, NR, rng, dim=DIM)
        else:
            model = make_learned_weight_model(NE, NR, 2 * DIM, rng, transform="tanh")
        save_model(model, tmp_path / "new")
        save_model(model, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert "use_compiled_kernel" not in meta
        meta["use_compiled_kernel"] = recorded
        meta_path.write_text(json.dumps(meta, indent=2))

        old, new = load_model(tmp_path / "old"), load_model(tmp_path / "new")
        heads = rng.integers(0, NE, 10)
        tails = rng.integers(0, NE, 10)
        rels = rng.integers(0, NR, 10)
        np.testing.assert_array_equal(
            old.score_triples(heads, tails, rels), new.score_triples(heads, tails, rels)
        )
        np.testing.assert_array_equal(
            old.score_all_heads(tails, rels), new.score_all_heads(tails, rels)
        )
        assert not hasattr(old, "use_compiled_kernel")
