"""Per-relation folded candidate matrices for retrieval indexing.

The Eq. 8 score factors, for a fixed relation ``r`` and query side, into
a plain inner product between a *raw* anchor embedding and a per-relation
*folded* candidate vector::

    S(h, e, r) = Σ_{ijd} W_r[i,j,d] · h[i,d] · e[j,d]
               = ⟨ flat(h),  tail_fold_r(e) ⟩      with
    tail_fold_r(e)[i,d] = Σ_j W_r[i,j,d] · e[j,d]

where ``W_r`` is the relation-folded mixing tensor
(:meth:`~repro.core.kernels.OmegaKernel.fold_relations`, built from the
compiled kernel's nonzero ω terms).  Only this index folds; scoring runs
through the model's kernel.  The head side folds the other entity axis.

This is the geometry an approximate index has to partition: maximum
inner product between the untouched anchor vector and relation-specific
candidate vectors.  Clustering the *folded* matrices (rather than the
raw entity table) aligns k-means cells with each relation's scoring
geometry — ω's zero pattern removes irrelevant slots before distances
are measured — which measurably improves recall at a fixed probe budget.

Folded matrices are built lazily per ``(relation, side)``, kept in a
configurable LRU (they are ``(N, n_e·D)`` — big at million-entity
scale), and invalidated whenever the model's ``scoring_version`` moves.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.base import CANDIDATE_SIDES
from repro.core.interaction import MultiEmbeddingModel
from repro.errors import ServingError
from repro.obs.registry import MetricsRegistry


def fold_candidate_matrix(
    model: MultiEmbeddingModel, relation: int, side: str = "tail"
) -> np.ndarray:
    """The ``(num_entities, n_e·D)`` folded candidate matrix of one relation.

    Row ``e`` satisfies ``S(anchor, e, r) == ⟨anchor_flat, row_e⟩`` (up
    to float re-association) for ``side="tail"`` queries, and
    symmetrically for ``side="head"``.
    """
    if not isinstance(model, MultiEmbeddingModel):
        raise ServingError(
            "folded candidate matrices require a MultiEmbeddingModel; got "
            f"{type(model).__name__}"
        )
    if side not in CANDIDATE_SIDES:
        raise ServingError(f"unknown side {side!r}; known: {CANDIDATE_SIDES}")
    if not 0 <= relation < model.num_relations:
        raise ServingError(
            f"relation id {relation} out of range [0, {model.num_relations})"
        )
    # One relation's mixing tensor from the kernel's nonzero terms only.
    mixing = model.kernel.fold_relations(
        model.relation_embeddings[relation : relation + 1]
    )[0]
    entities = model.entity_embeddings
    spec = "ijd,ejd->eid" if side == "tail" else "ijd,eid->ejd"
    folded = np.einsum(spec, mixing, entities, optimize=True)
    return folded.reshape(model.num_entities, -1)


def fold_candidate_rows(
    model: MultiEmbeddingModel, relation: int, side: str, rows: np.ndarray
) -> np.ndarray:
    """Folded candidate vectors of selected entity *rows* only.

    The incremental-maintenance analogue of
    :func:`fold_candidate_matrix`: the fold contracts per entity row, so
    folding a subset is bit-identical to slicing those rows out of the
    full matrix — at ``O(len(rows))`` instead of ``O(N)`` cost.
    """
    if not isinstance(model, MultiEmbeddingModel):
        raise ServingError(
            "folded candidate matrices require a MultiEmbeddingModel; got "
            f"{type(model).__name__}"
        )
    if side not in CANDIDATE_SIDES:
        raise ServingError(f"unknown side {side!r}; known: {CANDIDATE_SIDES}")
    if not 0 <= relation < model.num_relations:
        raise ServingError(
            f"relation id {relation} out of range [0, {model.num_relations})"
        )
    rows = np.asarray(rows, dtype=np.int64)
    mixing = model.kernel.fold_relations(
        model.relation_embeddings[relation : relation + 1]
    )[0]
    entities = model.entity_embeddings[rows]
    spec = "ijd,ejd->eid" if side == "tail" else "ijd,eid->ejd"
    folded = np.einsum(spec, mixing, entities, optimize=True)
    return folded.reshape(len(rows), -1)


class FoldedCandidateSource:
    """Versioned access to query vectors and folded candidate matrices.

    The index build path streams one ``(relation, side)`` matrix at a
    time through :meth:`candidate_matrix`; at serve time only the raw
    query vectors (:meth:`query_matrix`) and the per-partition centroids
    are needed, so the big folded matrices never stay resident.

    Cache outcomes are counted into *metrics* (the owning index's
    registry; a private one by default) as ``index.fold_cache.*``:
    ``hits``, ``misses`` and ``evictions`` — a high eviction rate against
    few relations means ``max_cached`` is too small and folds are
    recomputed over and over.
    """

    def __init__(
        self,
        model: MultiEmbeddingModel,
        max_cached: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not isinstance(model, MultiEmbeddingModel):
            raise ServingError(
                "FoldedCandidateSource requires a MultiEmbeddingModel; got "
                f"{type(model).__name__}"
            )
        if max_cached < 1:
            raise ServingError("max_cached must be >= 1")
        self.model = model
        self.max_cached = int(max_cached)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name in ("hits", "misses", "evictions"):
            self.metrics.inc("index.fold_cache." + name, 0)
        self._cache: OrderedDict[tuple[int, str], np.ndarray] = OrderedDict()
        self._cache_version = model.scoring_version

    @property
    def version(self) -> int:
        """The model's current ``scoring_version``."""
        return self.model.scoring_version

    @property
    def num_entities(self) -> int:
        return self.model.num_entities

    @property
    def feature_dim(self) -> int:
        """Flattened entity feature width ``n_e · D``."""
        return self.model.num_entity_vectors * self.model.dim

    def cached_matrices(self) -> tuple[np.ndarray, ...]:
        """The folded matrices currently resident in the LRU.

        Exposed for memory accounting (the scale benchmarks split these
        into private vs file-backed bytes); the tuple is a snapshot —
        mutating it does not touch the cache.
        """
        return tuple(self._cache.values())

    def entity_matrix(self) -> np.ndarray:
        """The raw flattened entity table, shape ``(N, n_e·D)`` (a view)."""
        return self.model.entity_embeddings.reshape(self.num_entities, -1)

    def query_matrix(self, anchors: np.ndarray) -> np.ndarray:
        """Raw flattened anchor vectors for a query batch, shape ``(b, f)``."""
        anchors = np.asarray(anchors, dtype=np.int64)
        return self.entity_matrix()[anchors]

    def candidate_matrix(self, relation: int, side: str = "tail") -> np.ndarray:
        """The folded candidate matrix of ``(relation, side)``, LRU-cached.

        Cached entries are dropped whenever the model trains, so a
        matrix handed out here always matches the current parameters.
        All outcomes are counted in :attr:`metrics`.
        """
        if self._cache_version != self.version:
            self._cache.clear()
            self._cache_version = self.version
        key = (int(relation), side)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self.metrics.inc("index.fold_cache.hits")
            return hit
        self.metrics.inc("index.fold_cache.misses")
        matrix = fold_candidate_matrix(self.model, int(relation), side)
        if len(self._cache) >= self.max_cached:
            self._cache.popitem(last=False)
            self.metrics.inc("index.fold_cache.evictions")
        self._cache[key] = matrix
        return matrix
