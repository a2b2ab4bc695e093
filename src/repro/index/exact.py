"""Brute-force candidate index: the equivalence oracle.

:class:`ExactIndex` implements the :class:`~repro.index.base.CandidateIndex`
interface with no data structure at all — every query's shortlist is
"all entities", flagged ``covers_all`` so the serving layer runs its
ordinary full-sweep path.  Its value is contractual, not computational:

* it pins down the semantics an approximate index must converge to
  (``IVFIndex`` with ``nprobe == nlist`` and ``ExactIndex`` are
  regression-tested bit-identical to an index-free ``LinkPredictor``);
* it lets callers flip a config between exact and approximate retrieval
  without touching any other code path;
* its trivial :meth:`candidate_lists` documents the batch contract for
  future index kinds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServingError
from repro.index.base import CandidateBatch, CandidateIndex, check_loaded_meta, read_index_meta


class ExactIndex(CandidateIndex):
    """The identity shortlist: every entity, every query, exact serving."""

    kind = "exact"

    def candidate_lists(
        self,
        anchors: np.ndarray,
        relations: np.ndarray,
        side: str,
    ) -> CandidateBatch:
        """All entities for every query (``covers_all`` batches)."""
        self.ensure_fresh()
        anchors = np.atleast_1d(np.asarray(anchors, dtype=np.int64))
        relations = np.atleast_1d(np.asarray(relations, dtype=np.int64))
        if anchors.shape != relations.shape or anchors.ndim != 1:
            raise ServingError("anchors and relations must be 1-D arrays of equal length")
        return CandidateBatch(
            ids=None,
            lengths=None,
            covers_all=True,
            num_scored=len(anchors) * self.num_entities,
        )

    def invalidate(self) -> None:
        """Nothing to drop — only the version watermark moves."""
        self._version = self.model.scoring_version

    def ensure_fresh(self) -> bool:
        """An exact index has no precomputed data, so it is never stale."""
        moved = self._version != self.model.scoring_version
        self._version = self.model.scoring_version
        return moved

    @classmethod
    def load(cls, directory, model, on_stale: str = "rebuild") -> "ExactIndex":
        """Restore a saved exact index (validates the model identity)."""
        meta = read_index_meta(directory)
        if meta.get("kind") != cls.kind:
            raise ServingError(f"not an exact index directory: {directory}")
        index = cls(model, on_stale=on_stale)
        # An exact index has no stale data to guard, but a fingerprint
        # mismatch under "error" still signals the checkpoint moved.
        check_loaded_meta(meta, model, on_stale)
        return index

    def __repr__(self) -> str:
        return f"ExactIndex(entities={self.num_entities})"
