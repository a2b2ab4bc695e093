"""Compiled-kernel vs dense-oracle equivalence (scores and gradients).

The acceptance bar for the kernel compiler: for every model class the
compiled engine must match the dense-einsum reference
(:mod:`dense_reference`, which shares no code with the kernel) to 1e-10
— scores, all three analytic gradient tensors, and the parameters
produced by full fused train steps (which additionally exercise scatter
accumulation and the fused optimizer paths).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import (
    DENSE_DENSITY_THRESHOLD,
    DenseEinsumKernel,
    SparseTermKernel,
    cached_einsum,
    compile_kernel,
    gather_transposed,
)
from repro.core.learned import LearnedWeightModel
from repro.core.models import make_learned_weight_model, make_model
from repro.core.weights import PRESETS, get_preset
from repro.errors import ModelError
from repro.nn.optimizers import make_optimizer
from tests.core.dense_reference import DenseReference

ATOL = 1e-10

#: Every fixed-ω preset in the registry — Table 1 derivations, Table 2
#: hand-crafted variants, the uniform baseline and the quaternion tensor.
ALL_PRESETS = sorted(PRESETS)

NE, NR, BATCH = 130, 7, 48


@pytest.fixture
def batch(rng):
    heads = rng.integers(0, NE, BATCH)
    tails = rng.integers(0, NE, BATCH)
    relations = rng.integers(0, NR, BATCH)
    return heads, tails, relations


def model_pair(name: str, **kwargs):
    """The same model twice: one on the compiled engine, one wrapped in
    the dense reference (read its parameters off ``.model``)."""
    if name == "learned":
        return (
            make_learned_weight_model(NE, NR, 16, np.random.default_rng(3), **kwargs),
            DenseReference(
                make_learned_weight_model(NE, NR, 16, np.random.default_rng(3), **kwargs)
            ),
        )
    dim = 16 // get_preset(name).num_entity_vectors
    return (
        make_model(name, NE, NR, np.random.default_rng(3), dim=dim, **kwargs),
        DenseReference(make_model(name, NE, NR, np.random.default_rng(3), dim=dim, **kwargs)),
    )


# ---------------------------------------------------------------- compilation
class TestCompilation:
    def test_sparse_below_threshold_dense_above(self):
        assert compile_kernel(get_preset("quaternion").tensor).mode == "sparse"
        assert compile_kernel(get_preset("cph").tensor).mode == "sparse"
        assert compile_kernel(get_preset("uniform").tensor).mode == "dense"
        assert compile_kernel(np.ones((2, 2, 2))).mode == "dense"

    def test_threshold_boundary(self):
        omega = np.zeros((2, 2, 2))
        omega[0, 0, 0] = 1.0
        assert isinstance(compile_kernel(omega), SparseTermKernel)
        assert isinstance(
            compile_kernel(omega, density_threshold=0.0), DenseEinsumKernel
        )

    def test_density_metadata(self):
        kernel = compile_kernel(get_preset("quaternion").tensor)
        assert kernel.num_terms == 16
        assert kernel.density == pytest.approx(0.25)
        assert kernel.density < DENSE_DENSITY_THRESHOLD

    def test_bad_omega_rejected(self):
        with pytest.raises(ModelError):
            compile_kernel(np.ones((2, 2)))

    def test_term_program_covers_all_nonzeros(self):
        for name in ALL_PRESETS:
            omega = get_preset(name).tensor
            kernel = compile_kernel(omega, density_threshold=1.1)  # force sparse
            assert isinstance(kernel, SparseTermKernel)
            rebuilt = np.zeros_like(omega)
            for i, j, k, w in kernel.terms:
                rebuilt[i, j, k] = w
            assert np.array_equal(rebuilt, omega)


# --------------------------------------------------------- kernel-level math
@pytest.mark.parametrize("name", ALL_PRESETS)
class TestKernelAgainstEinsum:
    """Direct contraction-level checks for every preset ω."""

    @pytest.fixture
    def tensors(self, name, rng):
        omega = get_preset(name).tensor
        n_h, n_t, n_r = omega.shape
        b, dim = 17, 5
        h_t = rng.normal(size=(n_h, b, dim))
        t_t = rng.normal(size=(n_t, b, dim))
        r_t = rng.normal(size=(n_r, b, dim))
        return omega, h_t, t_t, r_t

    @pytest.fixture(params=["sparse", "dense"])
    def kernel(self, request, tensors):
        omega = tensors[0]
        threshold = 1.1 if request.param == "sparse" else 0.0
        return compile_kernel(omega, density_threshold=threshold)

    def test_combines(self, kernel, tensors):
        omega, h_t, t_t, r_t = tensors
        assert np.allclose(
            kernel.combine_hr(h_t, r_t),
            np.einsum("ijk,ibd,kbd->jbd", omega, h_t, r_t),
            atol=ATOL,
        )
        assert np.allclose(
            kernel.combine_tr(t_t, r_t),
            np.einsum("ijk,jbd,kbd->ibd", omega, t_t, r_t),
            atol=ATOL,
        )
        assert np.allclose(
            kernel.combine_ht(h_t, t_t),
            np.einsum("ijk,ibd,jbd->kbd", omega, h_t, t_t),
            atol=ATOL,
        )

    def test_scores(self, kernel, tensors):
        omega, h_t, t_t, r_t = tensors
        expected = np.einsum("ijk,ibd,jbd,kbd->b", omega, h_t, t_t, r_t)
        assert np.allclose(kernel.score_triples(h_t, t_t, r_t), expected, atol=ATOL)

    def test_gradients(self, kernel, tensors):
        omega, h_t, t_t, r_t = tensors
        g = np.linspace(-1.0, 1.0, h_t.shape[1])
        grad_h, grad_t, grad_r = kernel.gradients(h_t, t_t, r_t, g)
        assert np.allclose(
            grad_h, g[None, :, None] * np.einsum("ijk,jbd,kbd->ibd", omega, t_t, r_t), atol=ATOL
        )
        assert np.allclose(
            grad_t, g[None, :, None] * np.einsum("ijk,ibd,kbd->jbd", omega, h_t, r_t), atol=ATOL
        )
        assert np.allclose(
            grad_r, g[None, :, None] * np.einsum("ijk,ibd,jbd->kbd", omega, h_t, t_t), atol=ATOL
        )

    def test_gradients_reuse_forward_combination(self, kernel, tensors):
        omega, h_t, t_t, r_t = tensors
        combined = np.empty_like(kernel.combine_hr(h_t, r_t))
        kernel.score_triples(h_t, t_t, r_t, combined_out=combined)
        g = np.linspace(0.5, 1.5, h_t.shape[1])
        _, grad_t, _ = kernel.gradients(h_t, t_t, r_t, g, forward_combined=combined)
        assert grad_t is combined  # scaled in place, no recontraction
        reference = g[None, :, None] * np.einsum("ijk,ibd,kbd->jbd", omega, h_t, r_t)
        assert np.allclose(grad_t, reference, atol=ATOL)

    def test_fold_relations(self, kernel, tensors, rng):
        omega = tensors[0]
        table = rng.normal(size=(6, omega.shape[2], 4))
        assert np.allclose(
            kernel.fold_relations(table),
            np.einsum("ijk,rkd->rijd", omega, table),
            atol=ATOL,
        )

    def test_omega_gradient(self, kernel, tensors, rng):
        omega, h_t, t_t, r_t = tensors
        g = rng.normal(size=h_t.shape[1])
        h, t, r = (x.transpose(1, 0, 2) for x in (h_t, t_t, r_t))
        assert np.allclose(
            kernel.omega_gradient(g, h, t, r),
            np.einsum("b,bid,bjd,bkd->ijk", g, h, t, r),
            atol=ATOL,
        )


# -------------------------------------------------------- model-level scores
MODEL_CLASSES = ["distmult", "distmult_n1", "complex", "cp", "cph", "quaternion", "uniform", "learned"]


@pytest.mark.parametrize("name", MODEL_CLASSES)
class TestModelEquivalence:
    def test_scoring_surface_matches_reference(self, name, batch, rng):
        kernel_model, dense_model = model_pair(name)
        heads, tails, relations = batch
        assert np.allclose(
            kernel_model.score_triples(heads, tails, relations),
            dense_model.score_triples(heads, tails, relations),
            atol=ATOL,
        )
        assert np.allclose(
            kernel_model.score_all_tails(heads, relations),
            dense_model.score_all_tails(heads, relations),
            atol=ATOL,
        )
        assert np.allclose(
            kernel_model.score_all_heads(tails, relations),
            dense_model.score_all_heads(tails, relations),
            atol=ATOL,
        )
        candidates = rng.integers(0, NE, (BATCH, 11))
        for side in ("tail", "head"):
            assert np.allclose(
                kernel_model.score_candidates(heads, relations, candidates, side=side),
                dense_model.score_candidates(heads, relations, candidates, side=side),
                atol=ATOL,
            )

    @pytest.mark.parametrize("optimizer_name", ["sgd", "adagrad", "adam"])
    def test_train_steps_match_reference(self, name, optimizer_name, rng):
        """Fused steps reproduce the dense-oracle parameters to 1e-10.

        Covers scores, all gradient tensors, scatter accumulation and the
        fused optimizer paths end to end, with regularisation on.
        """
        kernel_model, dense_model = model_pair(name, regularization=0.01)
        kernel_opt = make_optimizer(optimizer_name, 0.05)
        dense_opt = make_optimizer(optimizer_name, 0.05)
        for _ in range(3):
            positives = np.column_stack(
                [rng.integers(0, NE, 40), rng.integers(0, NE, 40), rng.integers(0, NR, 40)]
            )
            negatives = np.column_stack(
                [rng.integers(0, NE, 40), rng.integers(0, NE, 40), rng.integers(0, NR, 40)]
            )
            loss_kernel = kernel_model.train_step(positives, negatives, kernel_opt)
            loss_dense = dense_model.train_step(positives, negatives, dense_opt)
            assert loss_kernel == pytest.approx(loss_dense, abs=ATOL)
        assert np.allclose(
            kernel_model.entity_embeddings, dense_model.model.entity_embeddings, atol=ATOL
        )
        assert np.allclose(
            kernel_model.relation_embeddings, dense_model.model.relation_embeddings, atol=ATOL
        )
        if isinstance(kernel_model, LearnedWeightModel):
            assert np.allclose(kernel_model.rho, dense_model.model.rho, atol=ATOL)
            assert np.allclose(kernel_model.omega, dense_model.model.omega, atol=ATOL)

    def test_chunked_train_step_matches_reference(self, name, rng, monkeypatch):
        """Batches spanning several fused chunks (incl. a ragged tail)."""
        import repro.core.interaction as interaction

        monkeypatch.setattr(interaction, "_FUSED_CHUNK_ROWS", 16)
        kernel_model, dense_model = model_pair(name)
        kernel_opt = make_optimizer("adam", 0.05)
        dense_opt = make_optimizer("adam", 0.05)
        positives = np.column_stack(
            [rng.integers(0, NE, 37), rng.integers(0, NE, 37), rng.integers(0, NR, 37)]
        )
        negatives = np.column_stack(
            [rng.integers(0, NE, 37), rng.integers(0, NE, 37), rng.integers(0, NR, 37)]
        )
        loss_kernel = kernel_model.train_step(positives, negatives, kernel_opt)
        loss_dense = dense_model.train_step(positives, negatives, dense_opt)
        assert loss_kernel == pytest.approx(loss_dense, abs=ATOL)
        assert np.allclose(
            kernel_model.entity_embeddings, dense_model.model.entity_embeddings, atol=ATOL
        )

    def test_duplicate_heavy_batch_matches_reference(self, name, rng):
        """Scatter accumulation with every entity repeated many times."""
        kernel_model, dense_model = model_pair(name)
        kernel_opt = make_optimizer("adam", 0.05)
        dense_opt = make_optimizer("adam", 0.05)
        # Only 5 distinct entities across 60 occurrences.
        positives = np.column_stack(
            [rng.integers(0, 5, 30), rng.integers(0, 5, 30), rng.integers(0, NR, 30)]
        )
        negatives = np.column_stack(
            [rng.integers(0, 5, 30), rng.integers(0, 5, 30), rng.integers(0, NR, 30)]
        )
        kernel_model.train_step(positives, negatives, kernel_opt)
        dense_model.train_step(positives, negatives, dense_opt)
        assert np.allclose(
            kernel_model.entity_embeddings, dense_model.model.entity_embeddings, atol=ATOL
        )
        assert np.allclose(
            kernel_model.relation_embeddings, dense_model.model.relation_embeddings, atol=ATOL
        )


# ------------------------------------------------------------- recompilation
class TestKernelLifecycle:
    def test_fixed_weight_models_compile_once(self, batch):
        model, _ = model_pair("quaternion")
        kernel = model.kernel
        heads, tails, relations = batch
        optimizer = make_optimizer("adam", 0.01)
        model.train_step(
            np.column_stack(batch), np.column_stack((tails, heads, relations)), optimizer
        )
        assert model.kernel is kernel

    @pytest.mark.parametrize("transform", ["identity", "tanh", "softmax"])
    def test_learned_models_recompile_on_scoring_version_bump(self, transform, batch, rng):
        model = make_learned_weight_model(
            NE, NR, 16, np.random.default_rng(3), transform=transform
        )
        before = model.kernel
        assert before.mode == "dense"  # learned ω is fully dense
        positives = np.column_stack(batch)
        negatives = positives[:, [1, 0, 2]]
        model.train_step(positives, negatives, make_optimizer("adam", 0.05))
        after = model.kernel
        assert after is not before
        assert np.allclose(after.omega, model.omega, atol=ATOL)
        # scoring with the recompiled kernel matches a fresh dense model
        heads, tails, relations = batch
        reference = np.einsum(
            "ijk,bid,bjd,bkd->b",
            model.omega,
            model.entity_embeddings[heads],
            model.entity_embeddings[tails],
            model.relation_embeddings[relations],
        )
        assert np.allclose(model.score_triples(heads, tails, relations), reference, atol=ATOL)

    def test_refresh_omega_recompiles(self, rng):
        model = make_learned_weight_model(NE, NR, 16, np.random.default_rng(3), transform="tanh")
        before = model.kernel
        model.rho = model.rho * 1.3
        model.refresh_omega()
        assert model.kernel is not before
        assert np.allclose(model.kernel.omega, np.tanh(model.rho), atol=ATOL)


# ------------------------------------------------------------------- helpers
class TestHelpers:
    def test_gather_transposed_roundtrip(self, rng):
        table = rng.normal(size=(20, 3, 4))
        rows = rng.integers(0, 20, 15)
        gathered = gather_transposed(table, rows)
        assert gathered.shape == (3, 15, 4)
        assert np.array_equal(gathered.transpose(1, 0, 2), table[rows])

    def test_cached_einsum_matches_and_caches(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        assert np.allclose(cached_einsum("ij,jk->ik", a, b), a @ b, atol=ATOL)
        # same spec/shapes hit the path cache; different shapes recompute
        assert np.allclose(cached_einsum("ij,jk->ik", a, b), a @ b, atol=ATOL)

    def test_transposed_layout_validated(self):
        kernel = compile_kernel(get_preset("cph").tensor)
        with pytest.raises(ModelError):
            kernel.combine_hr(np.zeros((3, 5, 2)), np.zeros((2, 5, 2)))


class TestWorkspaceLifecycle:
    def test_empty_batch_raises_like_reference(self):
        from repro.errors import ConfigError

        kernel_model, dense_model = model_pair("cph")
        empty = np.zeros((0, 3), dtype=np.int64)
        optimizer = make_optimizer("adam", 0.01)
        with pytest.raises(ConfigError):
            kernel_model.train_step(empty, empty, optimizer)
        with pytest.raises(ConfigError):
            dense_model.train_step(empty, empty, optimizer)

    def test_release_training_buffers(self, rng):
        model, _ = model_pair("quaternion")
        positives = np.column_stack(
            [rng.integers(0, NE, 8), rng.integers(0, NE, 8), rng.integers(0, NR, 8)]
        )
        optimizer = make_optimizer("adam", 0.01)
        model.train_step(positives, positives[:, [1, 0, 2]], optimizer)
        assert model._workspaces
        model.release_training_buffers()
        assert not model._workspaces
        # training again just reallocates and still matches expectations
        loss = model.train_step(positives, positives[:, [1, 0, 2]], optimizer)
        assert np.isfinite(loss)
