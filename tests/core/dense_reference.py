"""Dense-einsum reference engine for Eq. 8: the oracle the ω kernel is tested against.

Every contraction here is one per-call ``np.einsum`` over the full ω
lattice, read straight off a model's tables and ``omega``.  Nothing is
shared with :mod:`repro.core.kernels` or the fused train step: no
compiled term program, no transposed gathers, no cached contraction
paths, no scatter accumulation.  So when the kernel and this module
agree to 1e-10, two independent implementations of the paper's formula
agree.

:class:`DenseReference` wraps a :class:`~repro.core.interaction.MultiEmbeddingModel`
(or a :class:`~repro.core.learned.LearnedWeightModel`) and mirrors its
scoring surface and ``train_step``; the reference step writes the
wrapped model's tables, ρ and optimizer state exactly as the model's own
step would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.learned import LearnedWeightModel
from repro.nn.optimizers import Optimizer, aggregate_rows


@dataclass
class DenseCache:
    """Forward-pass tensors the reference backward pass reuses."""

    heads: np.ndarray  # (b,) entity ids
    tails: np.ndarray
    relations: np.ndarray
    h_vecs: np.ndarray  # (b, n_e, D)
    t_vecs: np.ndarray  # (b, n_e, D)
    r_vecs: np.ndarray  # (b, n_r, D)
    scores: np.ndarray  # (b,)


class DenseReference:
    """Eq. 8 scoring and training on *model*'s parameters, by dense einsum."""

    def __init__(self, model) -> None:
        self.model = model

    # ---------------------------------------------------------------- scoring
    def forward(self, heads, tails, relations) -> DenseCache:
        """Scores of a triple batch, keeping the gathered embeddings."""
        model = self.model
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        h_vecs = model.entity_embeddings[heads]
        t_vecs = model.entity_embeddings[tails]
        r_vecs = model.relation_embeddings[relations]
        # ⟨·,·,·⟩ lattice contracted with ω:  C[b, j, d] = Σ_{ik} ω_ijk h_i r_k
        combined = np.einsum("ijk,bid,bkd->bjd", model.omega, h_vecs, r_vecs, optimize=True)
        scores = np.einsum("bjd,bjd->b", combined, t_vecs, optimize=True)
        return DenseCache(heads, tails, relations, h_vecs, t_vecs, r_vecs, scores)

    def score_triples(self, heads, tails, relations) -> np.ndarray:
        return self.forward(heads, tails, relations).scores

    def combined_query_flat(self, anchors, relations, side: str) -> np.ndarray:
        """``(b, n_e * D)`` anchor/relation combination for sweep scoring."""
        model = self.model
        anchor_vecs = model.entity_embeddings[np.asarray(anchors, dtype=np.int64)]
        r_vecs = model.relation_embeddings[np.asarray(relations, dtype=np.int64)]
        spec = "ijk,bid,bkd->bjd" if side == "tail" else "ijk,bjd,bkd->bid"
        combined = np.einsum(spec, model.omega, anchor_vecs, r_vecs, optimize=True)
        return combined.reshape(len(anchor_vecs), -1)

    def score_all_tails(self, heads, relations) -> np.ndarray:
        flat = self.combined_query_flat(heads, relations, "tail")
        return flat @ self.model.entity_embeddings.reshape(self.model.num_entities, -1).T

    def score_all_heads(self, tails, relations) -> np.ndarray:
        flat = self.combined_query_flat(tails, relations, "head")
        return flat @ self.model.entity_embeddings.reshape(self.model.num_entities, -1).T

    def score_candidates(self, anchors, relations, candidates, side: str = "tail") -> np.ndarray:
        """Scores of a ``(b, c)`` candidate id array, one einsum per batch."""
        flat = self.combined_query_flat(anchors, relations, side)
        entity_flat = self.model.entity_embeddings.reshape(self.model.num_entities, -1)
        candidates = np.asarray(candidates, dtype=np.int64)
        return np.einsum("bf,bcf->bc", flat, entity_flat[candidates], optimize=True)

    # -------------------------------------------------------------- gradients
    def score_gradients(
        self, cache: DenseCache, grad_scores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-occurrence gradients of the weighted loss w.r.t. H, T, R rows.

        ``grad_scores`` is dL/dS per batch element; the trilinear form
        gives, e.g., ``dS/dh^(i) = Σ_{jk} ω_ijk (t^(j) ⊙ r^(k))``.
        """
        omega = self.model.omega
        g = grad_scores[:, None, None]
        grad_h = g * np.einsum("ijk,bjd,bkd->bid", omega, cache.t_vecs, cache.r_vecs, optimize=True)
        grad_t = g * np.einsum("ijk,bid,bkd->bjd", omega, cache.h_vecs, cache.r_vecs, optimize=True)
        grad_r = g * np.einsum("ijk,bid,bjd->bkd", omega, cache.h_vecs, cache.t_vecs, optimize=True)
        return grad_h, grad_t, grad_r

    def omega_gradient(self, cache: DenseCache, grad_scores: np.ndarray) -> np.ndarray:
        """dL/dω."""
        return np.einsum(
            "b,bid,bjd,bkd->ijk",
            grad_scores,
            cache.h_vecs,
            cache.t_vecs,
            cache.r_vecs,
            optimize=True,
        )

    # --------------------------------------------------------------- training
    def train_step(self, positives, negatives, optimizer: Optimizer) -> float:
        """One optimisation step (Eq. 16 loss + L2 + constraint) on the model."""
        model = self.model
        if not model.entity_embeddings.flags.writeable:
            model.entity_embeddings = np.array(model.entity_embeddings)
        if not model.relation_embeddings.flags.writeable:
            model.relation_embeddings = np.array(model.relation_embeddings)
        triples = np.concatenate(
            [np.asarray(positives, dtype=np.int64), np.asarray(negatives, dtype=np.int64)]
        )
        labels = np.concatenate([np.ones(len(positives)), -np.ones(len(negatives))])
        cache = self.forward(triples[:, 0], triples[:, 1], triples[:, 2])
        loss_value = model.loss.value(cache.scores, labels)
        grad_scores = model.loss.grad_score(cache.scores, labels)
        grad_h, grad_t, grad_r = self.score_gradients(cache, grad_scores)

        # Per-occurrence L2 of Eq. 16 (each triple penalises its own
        # embedding vectors), averaged over the batch like the data loss.
        regularizer = model.regularizer
        if regularizer.strength > 0.0:
            inv_batch = 1.0 / len(triples)
            loss_value += inv_batch * (
                regularizer.value(cache.h_vecs)
                + regularizer.value(cache.t_vecs)
                + regularizer.value(cache.r_vecs)
            )
            grad_h = grad_h + inv_batch * regularizer.grad(cache.h_vecs)
            grad_t = grad_t + inv_batch * regularizer.grad(cache.t_vecs)
            grad_r = grad_r + inv_batch * regularizer.grad(cache.r_vecs)

        rows, grads = aggregate_rows(
            np.concatenate([cache.heads, cache.tails]), np.concatenate([grad_h, grad_t])
        )
        optimizer.step_sparse("entities", model.entity_embeddings, rows, grads)
        if model.constraint is not None:
            model.constraint.apply(model.entity_embeddings, rows)
        rel_rows, rel_grads = aggregate_rows(cache.relations, grad_r)
        optimizer.step_sparse("relations", model.relation_embeddings, rel_rows, rel_grads)

        if isinstance(model, LearnedWeightModel):
            grad_omega = self.omega_gradient(cache, grad_scores)
            if model.sparsity is not None:
                grad_omega = grad_omega + model.sparsity.grad(model.omega)
            grad_rho = model.transform.backward(model.rho, model.omega, grad_omega)
            optimizer.step_dense("omega_rho", model.rho, grad_rho)
            model.refresh_omega()  # ω = f(ρ), and bumps scoring_version
        else:
            model._bump_scoring_version()
        return float(loss_value)
