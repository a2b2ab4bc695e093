"""Top-k column selection under the repository-wide tie rule.

One primitive shared by the serving top-k (:class:`~repro.serving.
predictor.LinkPredictor`) and the IVF index's PQ prune: per row, the
``k`` best columns by descending score, ties toward the lower column
position.  Callers lay their candidates out id-ascending, so "lower
position" is the lower-id tie rule.
"""

from __future__ import annotations

import numpy as np


def top_k_columns(scores: np.ndarray, k: int) -> np.ndarray:
    """``(b, min(k, n))`` column positions of each row's best scores, ascending.

    Exactly the set a stable descending-score ``argsort`` truncated to
    ``k`` would keep, found with ``argpartition`` in O(n) per row instead
    of O(n log n).  ``argpartition`` splits ties *at* the k-th value
    arbitrarily, so rows whose boundary value also occurs outside the
    kept set are repaired to keep the lowest positions; everything else
    is exact by construction.
    """
    num_cols = scores.shape[1]
    if k >= num_cols:
        return np.broadcast_to(np.arange(num_cols), scores.shape).copy()
    kept = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    kept_scores = np.take_along_axis(scores, kept, axis=1)
    threshold = kept_scores.min(axis=1)
    tied = scores == threshold[:, None]
    ambiguous = np.flatnonzero(
        tied.sum(axis=1) != (kept_scores == threshold[:, None]).sum(axis=1)
    )
    for row in ambiguous:
        above = kept[row][kept_scores[row] > threshold[row]]
        ties = np.flatnonzero(tied[row])  # ascending position
        kept[row, : len(above)] = above
        kept[row, len(above):] = ties[: k - len(above)]
    kept.sort(axis=1)
    return kept
