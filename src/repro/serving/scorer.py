"""Memory-bounded batched scoring shared by serving and evaluation.

:class:`BatchedScorer` is the one place where 1-vs-all score matrices
are produced: the :class:`~repro.serving.predictor.LinkPredictor` uses
it to answer top-k requests and the
:class:`~repro.eval.evaluator.LinkPredictionEvaluator` streams its eval
triples through :meth:`~BatchedScorer.iter_all_scores`, in process or
in its shard workers alike.  It scores through the model it wraps (for
Eq. 8 models, the compiled ω kernel), so on the same batch serving
returns bit for bit the scores evaluation ranks with.  It adds
**chunking** on top: a ``(b, num_entities)`` float64 score matrix for a
big batch can dwarf RAM, so sweeps are computed in row chunks whose size
is derived from an element budget (or fixed by the caller).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.base import CANDIDATE_SIDES, KGEModel
from repro.errors import ServingError

#: Default budget: at most this many float64 score-matrix elements live at once.
DEFAULT_CHUNK_ELEMENTS = 1 << 24


class BatchedScorer:
    """Chunked 1-vs-all / candidate scoring over any :class:`KGEModel`.

    Parameters
    ----------
    model:
        The model to score through.
    chunk_size:
        Fixed number of query rows per model call, or ``None`` to
        derive it from ``max_chunk_elements``.
    max_chunk_elements:
        Element budget for one ``(chunk, num_entities)`` score matrix.
    """

    def __init__(
        self,
        model: KGEModel,
        chunk_size: int | None = None,
        max_chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ServingError("chunk_size must be >= 1")
        if max_chunk_elements < 1:
            raise ServingError("max_chunk_elements must be >= 1")
        self.model = model
        self.chunk_size = int(chunk_size) if chunk_size is not None else None
        self.max_chunk_elements = int(max_chunk_elements)

    def effective_chunk_size(self) -> int:
        """Rows per chunk after applying the element budget."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, self.max_chunk_elements // max(1, self.model.num_entities))

    # ------------------------------------------------------------- sweeps
    def iter_all_scores(
        self, anchors: np.ndarray, relations: np.ndarray, side: str
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, scores)`` chunks of the 1-vs-all sweep.

        ``scores`` has shape ``(stop - start, num_entities)``.  Chunk
        boundaries affect values at most at the last-ulp level (BLAS
        kernels vary with batch size); *within* a row the relative order
        and exact ties of candidates are unaffected, which is what rank
        metrics and top-k depend on — the evaluator's chunking regression
        test pins metrics bit-identical across chunk sizes.
        """
        if side not in CANDIDATE_SIDES:
            raise ServingError(f"unknown side {side!r}; known: {CANDIDATE_SIDES}")
        anchors = np.asarray(anchors, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        if anchors.ndim != 1 or anchors.shape != relations.shape:
            raise ServingError("anchors and relations must be 1-D arrays of equal length")
        # Resolved per call, not at construction, so a wrapper set on the
        # model instance after this scorer was built still runs.
        sweep = self.model.score_all_tails if side == "tail" else self.model.score_all_heads
        chunk = self.effective_chunk_size()
        for start in range(0, len(anchors), chunk):
            stop = min(start + chunk, len(anchors))
            yield start, stop, sweep(anchors[start:stop], relations[start:stop])

    def all_scores(self, anchors: np.ndarray, relations: np.ndarray, side: str) -> np.ndarray:
        """The full ``(b, num_entities)`` sweep, assembled from chunks."""
        anchors = np.asarray(anchors, dtype=np.int64)
        out = np.empty((len(anchors), self.model.num_entities), dtype=np.float64)
        for start, stop, scores in self.iter_all_scores(anchors, relations, side):
            out[start:stop] = scores
        return out

    # --------------------------------------------------------- point scores
    def score_triples(self, heads, tails, relations) -> np.ndarray:
        """Batch triple scores through the model."""
        return self.model.score_triples(heads, tails, relations)

    def score_candidates(self, anchors, relations, candidates, side="tail") -> np.ndarray:
        """Candidate-set scores through the model."""
        return self.model.score_candidates(anchors, relations, candidates, side)
