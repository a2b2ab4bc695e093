"""The multi-embedding interaction model — the paper's Eq. 8.

Entities own ``n_e`` embedding vectors each, relations ``n_r``; the score
of ``(h, t, r)`` is the ω-weighted sum of all ``n_e · n_e · n_r``
trilinear products:

    S(h, t, r; Θ, ω) = Σ_{ijk} ω_{ijk} ⟨h^(i), t^(j), r^(k)⟩

Training uses analytic gradients (the score is trilinear, so they are
closed-form) with the logistic loss of Eq. 16, per-triple L2
regularisation, lazy sparse optimizer updates, and the paper's
unit-L2-norm constraint on entity embeddings after each step.  The
gradients are certified against the autodiff engine and finite
differences by the test-suite.

Scoring and training run on one engine, the **compiled kernel**: ω is
compiled once per model into a term-grouped program over its nonzero
entries (:mod:`repro.core.kernels`), and ``train_step`` runs a fused hot
path with preallocated gather buffers, a reused forward combination, and
duplicate-aware scatter accumulation.  The test-suite certifies it to
1e-10 against an independent dense-einsum oracle
(``tests/core/dense_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import KGEModel
from repro.core.kernels import OmegaKernel, compile_kernel, gather_transposed
from repro.core.weights import WeightVector
from repro.errors import ConfigError, ModelError
from repro.nn.constraints import UnitNormConstraint
from repro.nn.initializers import get_initializer
from repro.nn.losses import LogisticLoss
from repro.nn.optimizers import Optimizer, scatter_accumulate_transposed
from repro.nn.regularizers import L2Regularizer, N3Regularizer


@dataclass
class _BatchCache:
    """Forward-pass tensors handed to the :meth:`_extra_updates` hook.

    The fused train step fills the embedding fields with transposed
    *views* into its per-batch workspace buffers: the layout is
    ``(b, slots, D)``, and the views are only valid until the next step.
    """

    heads: np.ndarray  # (b,) entity ids
    tails: np.ndarray
    relations: np.ndarray
    h_vecs: np.ndarray  # (b, n_e, D)
    t_vecs: np.ndarray  # (b, n_e, D)
    r_vecs: np.ndarray  # (b, n_r, D)
    scores: np.ndarray  # (b,)


class _TrainWorkspace:
    """Preallocated per-batch-size buffers for the fused train step.

    One train step gathers three transposed embedding blocks and emits
    three gradient blocks of identical shape; reallocating ~10 MB of
    scratch every step costs more than the arithmetic on small batches.
    Buffers are keyed by batch size on the model (training alternates
    between the full batch size and one remainder batch per epoch).
    """

    def __init__(
        self, batch: int, n_ent: int, n_rel: int, dim: int, num_entities: int, num_relations: int
    ) -> None:
        self.h_t = np.empty((n_ent, batch, dim), dtype=np.float64)
        self.t_t = np.empty((n_ent, batch, dim), dtype=np.float64)
        self.r_t = np.empty((n_rel, batch, dim), dtype=np.float64)
        self.combined = np.empty((n_ent, batch, dim), dtype=np.float64)
        self.grad_h = np.empty((n_ent, batch, dim), dtype=np.float64)
        self.grad_r = np.empty((n_rel, batch, dim), dtype=np.float64)
        self.scaled_t = np.empty((n_ent, batch, dim), dtype=np.float64)
        # Scatter-accumulation buffers; a batch can touch at most
        # min(occurrences, table size) unique rows.  The *_sums buffers
        # hold standard-layout results for the optimizer, the *_slot
        # buffers are the per-slot accumulation scratch.
        unique_entities = min(2 * batch, num_entities)
        unique_relations = min(batch, num_relations)
        self.entity_sums = np.empty((unique_entities, n_ent, dim), dtype=np.float64)
        self.relation_sums = np.empty((unique_relations, n_rel, dim), dtype=np.float64)
        self.entity_slot_sums = np.empty((n_ent, unique_entities, dim), dtype=np.float64)
        self.relation_slot_sums = np.empty((n_rel, unique_relations, dim), dtype=np.float64)


#: Max distinct batch sizes whose workspaces a model keeps alive.
_MAX_WORKSPACES = 4

#: Row-chunk size of the fused forward/backward sweep.  The loss and its
#: score gradient are elementwise per triple, so the whole
#: gather → combine → score → gradient pipeline runs chunk by chunk with
#: every slice still cache-hot, instead of streaming each full-batch
#: tensor through memory once per stage.  192 keeps the ~7 live chunk
#: slices inside L2/L3 for four-embedding models while amortising the
#: term programs' numpy dispatch overhead (measured sweet spot on the
#: training benchmark; 128–512 are all within ~15%).
_FUSED_CHUNK_ROWS = 192


class MultiEmbeddingModel(KGEModel):
    """Eq. 8 scorer with a fixed (non-trainable) interaction weight ω.

    Parameters
    ----------
    num_entities, num_relations:
        Id-space sizes.
    dim:
        Dimension ``D`` of each component embedding vector.  At fixed
        parameter budget, one-embedding models use ``D``, two-embedding
        models ``D/2``, four-embedding ``D/4`` (paper §5.3).
    weights:
        The interaction weight vector ω (see :mod:`repro.core.weights`).
    rng:
        Generator for embedding initialisation.
    regularization:
        λ of Eq. 16.  The effective coefficient is ``λ / n_D`` with
        ``n_D`` the per-triple embedding size, as in the paper.
    initializer:
        Name from :mod:`repro.nn.initializers`.
    unit_norm_entities:
        Apply the paper's unit-L2-norm constraint to touched entity rows
        after every step.
    regularizer_kind:
        ``"l2"`` (paper Eq. 16, default) or ``"n3"`` (the cubic nuclear
        norm of Lacroix et al. 2018, the regulariser that — together
        with inverse augmentation — makes CP competitive at scale).
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int,
        weights: WeightVector,
        rng: np.random.Generator,
        regularization: float = 0.0,
        initializer: str = "unit_normalized",
        unit_norm_entities: bool = True,
        loss: LogisticLoss | None = None,
        regularizer_kind: str = "l2",
    ) -> None:
        if num_entities < 1 or num_relations < 1:
            raise ConfigError("id spaces must be non-empty")
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        self.name = weights.name
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.dim = int(dim)
        self.weights = weights
        self.num_entity_vectors = weights.num_entity_vectors
        self.num_relation_vectors = weights.num_relation_vectors
        init = get_initializer(initializer)
        self.entity_embeddings = init(
            (self.num_entities, self.num_entity_vectors, self.dim), rng
        ).astype(np.float64, copy=False)
        self.relation_embeddings = init(
            (self.num_relations, self.num_relation_vectors, self.dim), rng
        ).astype(np.float64, copy=False)
        # n_D of Eq. 16: number of embedding scalars touched by one triple.
        per_triple_size = (2 * self.num_entity_vectors + self.num_relation_vectors) * self.dim
        if regularizer_kind == "l2":
            self.regularizer: L2Regularizer | N3Regularizer = L2Regularizer(
                regularization, scale=per_triple_size
            )
        elif regularizer_kind == "n3":
            self.regularizer = N3Regularizer(regularization, scale=per_triple_size)
        else:
            raise ConfigError(f"unknown regularizer_kind {regularizer_kind!r}; use 'l2' or 'n3'")
        self.loss = loss or LogisticLoss()
        self.constraint = UnitNormConstraint() if unit_norm_entities else None
        self._kernel: OmegaKernel | None = None
        self._kernel_omega: np.ndarray | None = None
        self._kernel_version: int = -1
        self._workspaces: dict[int, _TrainWorkspace] = {}

    # ------------------------------------------------------------------ omega
    @property
    def omega(self) -> np.ndarray:
        """The interaction weight tensor used for scoring.

        Subclasses with trainable ω override this property.
        """
        return self.weights.tensor

    # ----------------------------------------------------------------- kernel
    @property
    def kernel(self) -> OmegaKernel:
        """The compiled ω kernel, recompiled whenever ω is replaced.

        Fixed-weight models compile exactly once: their ω tensors are
        write-locked :class:`WeightVector` arrays whose identity never
        changes.  Learned-ω models recompile lazily on the next access
        after ω is replaced *or* — because the identity transform hands
        back its mutable ρ array — whenever ``scoring_version`` moved
        under a writeable ω.  For their dense ω a recompile is an object
        allocation; einsum paths live in a shared module cache.
        """
        omega = self.omega
        if (
            self._kernel is None
            or self._kernel_omega is not omega
            or (omega.flags.writeable and self._kernel_version != self._scoring_version)
        ):
            self._kernel = compile_kernel(omega)
            self._kernel_omega = omega
            self._kernel_version = self._scoring_version
        return self._kernel

    def _workspace(self, batch: int) -> _TrainWorkspace:
        workspace = self._workspaces.get(batch)
        if workspace is None:
            if len(self._workspaces) >= _MAX_WORKSPACES:
                # Evict only the oldest entry so loops rotating through
                # several recurring batch sizes keep their hot buffers.
                self._workspaces.pop(next(iter(self._workspaces)))
            workspace = _TrainWorkspace(
                batch,
                self.num_entity_vectors,
                self.num_relation_vectors,
                self.dim,
                self.num_entities,
                self.num_relations,
            )
            self._workspaces[batch] = workspace
        return workspace

    def release_training_buffers(self) -> None:
        """Drop the fused train step's scratch workspaces.

        A trained model handed to the serving layer otherwise keeps up
        to :data:`_MAX_WORKSPACES` batch-sized buffer sets alive for its
        lifetime.  Training after a release simply reallocates them.
        """
        self._workspaces.clear()

    # ----------------------------------------------------------------- growth
    def grow(
        self,
        num_entities: int | None = None,
        num_relations: int | None = None,
        rng: np.random.Generator | None = None,
        initializer: str = "unit_normalized",
    ) -> tuple[int, int]:
        """Grow the embedding tables in place for an ingested graph delta.

        New rows are drawn from *initializer*; existing rows are carried
        over bit-identically into fresh writable arrays (so growth also
        works on a read-only memmapped checkpoint).  The scratch
        workspaces are dropped — their scatter buffers are sized to the
        old id spaces — and ``scoring_version`` is bumped so every
        cache/index keyed on it re-syncs.  Returns the number of new
        ``(entity, relation)`` rows; ``(0, 0)`` growth is a no-op that
        leaves the version untouched.
        """
        target_e = self.num_entities if num_entities is None else int(num_entities)
        target_r = self.num_relations if num_relations is None else int(num_relations)
        if target_e < self.num_entities or target_r < self.num_relations:
            raise ModelError(
                f"embedding tables never shrink: ({self.num_entities}, "
                f"{self.num_relations}) -> ({target_e}, {target_r})"
            )
        added_e = target_e - self.num_entities
        added_r = target_r - self.num_relations
        if not added_e and not added_r:
            return (0, 0)
        if rng is None:
            rng = np.random.default_rng(0)
        init = get_initializer(initializer)
        if added_e:
            fresh = init((added_e, self.num_entity_vectors, self.dim), rng).astype(
                np.float64, copy=False
            )
            self.entity_embeddings = np.concatenate([self.entity_embeddings, fresh])
            self.num_entities = target_e
        if added_r:
            fresh = init((added_r, self.num_relation_vectors, self.dim), rng).astype(
                np.float64, copy=False
            )
            self.relation_embeddings = np.concatenate([self.relation_embeddings, fresh])
            self.num_relations = target_r
        self._workspaces.clear()
        self._bump_scoring_version()
        return (added_e, added_r)

    # ---------------------------------------------------------------- scoring
    @staticmethod
    def _validate_triples(
        heads: np.ndarray, tails: np.ndarray, relations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        if not (heads.shape == tails.shape == relations.shape) or heads.ndim != 1:
            raise ModelError("heads, tails, relations must be 1-D arrays of equal length")
        return heads, tails, relations

    def score_triples(
        self, heads: np.ndarray, tails: np.ndarray, relations: np.ndarray
    ) -> np.ndarray:
        """Eq. 8 scores for a batch of triples."""
        heads, tails, relations = self._validate_triples(heads, tails, relations)
        return self.kernel.score_triples(
            gather_transposed(self.entity_embeddings, heads),
            gather_transposed(self.entity_embeddings, tails),
            gather_transposed(self.relation_embeddings, relations),
        )

    def _combined_query_flat(
        self, anchors: np.ndarray, relations: np.ndarray, side: str
    ) -> np.ndarray:
        """``(b, n_e * D)`` anchor/relation combination for sweep scoring.

        For ``side="tail"`` the anchors are heads and the combination
        lives in the tail slots (and vice versa).
        """
        anchor_t = gather_transposed(self.entity_embeddings, anchors)
        r_t = gather_transposed(self.relation_embeddings, relations)
        kernel = self.kernel
        combined = (
            kernel.combine_hr(anchor_t, r_t)
            if side == "tail"
            else kernel.combine_tr(anchor_t, r_t)
        )
        return combined.transpose(1, 0, 2).reshape(len(anchors), -1)

    def score_all_tails(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """Score every entity as the tail of ``(h, ?, r)``.

        Uses the factorisation ``S(h, e, r) = Σ_j C_j · e^(j)`` with
        ``C_j = Σ_{ik} ω_ijk h^(i) ⊙ r^(k)``, so the all-entity sweep is a
        single matmul.
        """
        heads = np.asarray(heads, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        flat = self._combined_query_flat(heads, relations, "tail")
        entity_flat = self.entity_embeddings.reshape(self.num_entities, -1)
        return flat @ entity_flat.T

    def score_all_heads(self, tails: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """Score every entity as the head of ``(?, t, r)``."""
        tails = np.asarray(tails, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        flat = self._combined_query_flat(tails, relations, "head")
        entity_flat = self.entity_embeddings.reshape(self.num_entities, -1)
        return flat @ entity_flat.T

    def score_candidates(
        self,
        anchors: np.ndarray,
        relations: np.ndarray,
        candidates: np.ndarray,
        side: str = "tail",
    ) -> np.ndarray:
        """Candidate-set scoring without the full 1-vs-all sweep.

        Reuses the :meth:`score_all_tails` factorisation but contracts the
        combined tensor only with the requested candidate rows, so the
        cost is ``O(b · c · n_e · D)`` instead of ``O(b · N · n_e · D)``.

        When every query shares one ``(c,)`` candidate id array, the
        contraction is a single matmul against one gathered ``(c, f)``
        block instead of a ``(b, c, f)`` per-query gather — same scores,
        ``b``× less gather memory.
        """
        shared = np.ndim(candidates) == 1
        anchors, relations, candidates = self._validate_candidate_query(
            anchors, relations, candidates, side
        )
        flat = self._combined_query_flat(anchors, relations, side)
        entity_flat = self.entity_embeddings.reshape(self.num_entities, -1)
        if shared and len(candidates):
            return flat @ entity_flat[candidates[0]].T
        return np.einsum("bf,bcf->bc", flat, entity_flat[candidates], optimize=True)

    # ---------------------------------------------------------------- training
    def train_step(
        self, positives: np.ndarray, negatives: np.ndarray, optimizer: Optimizer
    ) -> float:
        """One optimisation step on a batch (Eq. 16 loss + L2 + constraint).

        Compiled-kernel hot path: three contractions, no ω lattice.
        Compared with a plain dense-einsum step (the test-suite's oracle,
        matched to 1e-10):

        * embeddings are gathered into preallocated transposed buffers,
        * the forward combination is reused as the tail gradient,
        * per-occurrence gradients are collapsed with
          :func:`~repro.nn.optimizers.scatter_accumulate` instead of
          ``np.add.at`` over full-width temporaries, and
        * the optimizer update runs through
          :meth:`~repro.nn.optimizers.Optimizer.step_sparse_fused`.

        Tables still mapped read-only from a checkpoint become private
        copies first (same values, same ``scoring_version``).
        """
        if not self.entity_embeddings.flags.writeable:
            self.entity_embeddings = np.array(self.entity_embeddings)
        if not self.relation_embeddings.flags.writeable:
            self.relation_embeddings = np.array(self.relation_embeddings)
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        kernel = self.kernel
        heads = np.concatenate([positives[:, 0], negatives[:, 0]])
        tails = np.concatenate([positives[:, 1], negatives[:, 1]])
        relations = np.concatenate([positives[:, 2], negatives[:, 2]])
        batch = len(heads)
        if batch == 0:
            raise ConfigError("loss requires at least one example")
        ws = self._workspace(batch)
        labels = np.concatenate(
            [np.ones(len(positives)), -np.ones(len(negatives))]
        )
        scores = np.empty(batch, dtype=np.float64)
        grad_scores = np.empty(batch, dtype=np.float64)
        regularizing = self.regularizer.strength > 0.0
        inv_batch = 1.0 / batch
        loss_sum = 0.0

        for start in range(0, batch, _FUSED_CHUNK_ROWS):
            stop = min(start + _FUSED_CHUNK_ROWS, batch)
            span = np.s_[:, start:stop]
            h_c = ws.h_t[span]
            t_c = ws.t_t[span]
            r_c = ws.r_t[span]
            gather_transposed(self.entity_embeddings, heads[start:stop], out=h_c)
            gather_transposed(self.entity_embeddings, tails[start:stop], out=t_c)
            gather_transposed(self.relation_embeddings, relations[start:stop], out=r_c)

            scores_c = kernel.score_triples(h_c, t_c, r_c, combined_out=ws.combined[span])
            scores[start:stop] = scores_c
            labels_c = labels[start:stop]
            # The loss is a mean over triples, so chunk values/gradients
            # rescale from the chunk denominator to the batch denominator.
            loss_sum += self.loss.value(scores_c, labels_c) * (stop - start)
            grad_scores_c = self.loss.grad_score(scores_c, labels_c)
            grad_scores_c *= (stop - start) * inv_batch
            grad_scores[start:stop] = grad_scores_c
            grad_h_c, grad_t_c, grad_r_c = kernel.gradients(
                h_c,
                t_c,
                r_c,
                grad_scores_c,
                forward_combined=ws.combined[span],
                out_h=ws.grad_h[span],
                out_r=ws.grad_r[span],
                scaled_t=ws.scaled_t[span],
            )
            if regularizing:
                loss_sum += (
                    self.regularizer.value(h_c)
                    + self.regularizer.value(t_c)
                    + self.regularizer.value(r_c)
                )
                grad_h_c += inv_batch * self.regularizer.grad(h_c)
                grad_t_c += inv_batch * self.regularizer.grad(t_c)
                grad_r_c += inv_batch * self.regularizer.grad(r_c)

        loss_value = loss_sum * inv_batch

        # Duplicate-aware scatter accumulation straight off the transposed
        # gradient buffers (grad_t lives in the reused forward combination).
        rows, grads = scatter_accumulate_transposed(
            (heads, tails),
            (ws.grad_h, ws.combined),
            out=ws.entity_sums,
            slot_scratch=ws.entity_slot_sums,
        )
        optimizer.step_sparse_fused("entities", self.entity_embeddings, rows, grads)
        if self.constraint is not None:
            self.constraint.apply(self.entity_embeddings, rows)
        rel_rows, rel_grads = scatter_accumulate_transposed(
            (relations,),
            (ws.grad_r,),
            out=ws.relation_sums,
            slot_scratch=ws.relation_slot_sums,
        )
        optimizer.step_sparse_fused(
            "relations", self.relation_embeddings, rel_rows, rel_grads
        )

        # Transposed views keep the _extra_updates hook layout-compatible.
        cache = _BatchCache(
            heads,
            tails,
            relations,
            ws.h_t.transpose(1, 0, 2),
            ws.t_t.transpose(1, 0, 2),
            ws.r_t.transpose(1, 0, 2),
            scores,
        )
        self._extra_updates(cache, grad_scores, optimizer)
        self._bump_scoring_version()
        return float(loss_value)

    def _extra_updates(
        self, cache: _BatchCache, grad_scores: np.ndarray, optimizer: Optimizer
    ) -> None:
        """Hook for subclasses that own extra parameters (e.g. trainable ω)."""

    # ------------------------------------------------------------------- misc
    def parameter_count(self) -> int:
        """Trainable scalars across both embedding tables."""
        return int(self.entity_embeddings.size + self.relation_embeddings.size)

    def entity_features(self) -> np.ndarray:
        """Concatenated real-valued entity features, shape ``(N, n_e * D)``.

        §3.2's practical insight: multiple embedding vectors can simply be
        concatenated into one long real vector for downstream analysis.
        """
        return self.entity_embeddings.reshape(self.num_entities, -1).copy()

    def relation_features(self) -> np.ndarray:
        """Concatenated real-valued relation features, shape ``(R, n_r * D)``."""
        return self.relation_embeddings.reshape(self.num_relations, -1).copy()
