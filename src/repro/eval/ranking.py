"""Rank computation for the link prediction protocol (paper §5.2).

For each true triple ``(h, t, r)`` the model scores every entity as a
replacement for ``t`` (tail side) and for ``h`` (head side).  The rank of
the true entity among the candidates determines the metrics.

Two protocol details matter and are both implemented here:

* **Filtering** (Bordes et al. 2013): corrupted triples that are
  themselves true (in train, valid or test) are removed before ranking,
  avoiding false-negative penalties.
* **Tie handling**: candidates with a score *equal* to the true triple's
  are counted as half above / half below ("average" ranking).  This is
  the unbiased convention; "optimistic" and "pessimistic" are also
  available for sensitivity checks.  With DistMult on inverse-paired data
  ties are common, so the convention is not a technicality.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EvaluationError

TIE_POLICIES = ("average", "optimistic", "pessimistic")


def rank_of_true(
    scores: np.ndarray,
    true_index: int,
    filter_out: np.ndarray | None = None,
    tie_policy: str = "average",
) -> float:
    """Rank (1-based) of ``scores[true_index]`` among all candidates.

    Parameters
    ----------
    scores:
        ``(num_entities,)`` candidate scores, higher = better.
    true_index:
        Index of the true entity.
    filter_out:
        Candidate indices to exclude (known true triples).  The true index
        itself is always kept even if listed.
    tie_policy:
        How candidates scoring exactly the true score are counted.
    """
    if tie_policy not in TIE_POLICIES:
        raise EvaluationError(f"unknown tie policy {tie_policy!r}; known: {TIE_POLICIES}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise EvaluationError("scores must be 1-D")
    if not 0 <= true_index < len(scores):
        raise EvaluationError(f"true_index {true_index} out of range")
    true_score = scores[true_index]

    if filter_out is not None and len(filter_out):
        mask = np.zeros(len(scores), dtype=bool)
        mask[np.asarray(filter_out, dtype=np.int64)] = True
        mask[true_index] = False
        considered = scores[~mask]
        # position of the true score inside the filtered array
        better = int(np.sum(considered > true_score))
        ties = int(np.sum(considered == true_score)) - 1  # exclude the true one
    else:
        better = int(np.sum(scores > true_score))
        ties = int(np.sum(scores == true_score)) - 1

    if tie_policy == "optimistic":
        return float(better + 1)
    if tie_policy == "pessimistic":
        return float(better + ties + 1)
    return float(better + 1) + ties / 2.0


def ranks_from_score_matrix(
    score_matrix: np.ndarray,
    true_indices: np.ndarray,
    filters: list[np.ndarray] | None = None,
    tie_policy: str = "average",
) -> np.ndarray:
    """Vectorised :func:`rank_of_true` over a batch.

    Parameters
    ----------
    score_matrix:
        ``(b, num_entities)`` scores for each query.
    true_indices:
        ``(b,)`` index of the true entity per query.
    filters:
        Per-query arrays of candidate ids to exclude.
    """
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    true_indices = np.asarray(true_indices, dtype=np.int64)
    if score_matrix.ndim != 2 or len(score_matrix) != len(true_indices):
        raise EvaluationError("score_matrix must be (b, n) matching true_indices")
    if filters is not None and len(filters) != len(true_indices):
        raise EvaluationError("filters must have one entry per query")
    ranks = np.empty(len(true_indices), dtype=np.float64)
    for row in range(len(true_indices)):
        filter_out = filters[row] if filters is not None else None
        ranks[row] = rank_of_true(
            score_matrix[row], int(true_indices[row]), filter_out, tie_policy
        )
    return ranks
