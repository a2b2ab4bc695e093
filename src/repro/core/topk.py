"""Top-k column selection under the repository-wide tie rule.

One primitive shared by the serving top-k (:class:`~repro.serving.
predictor.LinkPredictor`) and the IVF index's PQ prune: per row, the
``k`` best columns by descending score, ties toward the lower column
position.  Callers lay their candidates out id-ascending, so "lower
position" is the lower-id tie rule.

Two paths give the same answer, picked by the row length ``n`` against
``k`` alone.  Short rows (the PQ prune's 256 of a few thousand, a
shortlist re-rank) take ``argpartition``.  Long rows (a 1-vs-all sweep
over every entity) first bound each row's k-th best score from below
with the k-th largest of many disjoint column-group maxima, then order
only the few entries at or above that bound.  On 64 rows of a
24,000-entity float64 sweep that was 3-6x faster than ``argpartition``
for k <= 100 on a two-core host.
"""

from __future__ import annotations

import numpy as np

#: The pruned path reads the row as ``max(_MIN_GROUPS, _GROUPS_PER_K * k)``
#: interleaved column groups: that many maxima put the k-th largest
#: close enough to the row's k-th best that few more than k entries
#: clear it.
_MIN_GROUPS = 256
_GROUPS_PER_K = 8

#: Rows shorter than this many columns per group stay on argpartition:
#: below it the group maxima cost about as much as the partition saves
#: (measured on 1-64 rows of 1,000-24,000 float64 columns).
_MIN_GROUP_WIDTH = 8


def top_k_columns(scores: np.ndarray, k: int) -> np.ndarray:
    """``(b, min(k, n))`` column positions of each row's best scores, ascending.

    Exactly the set a stable descending-score ``argsort`` truncated to
    ``k`` would keep, in O(n) per row instead of O(n log n).
    """
    num_cols = scores.shape[1]
    if k >= num_cols:
        return np.broadcast_to(np.arange(num_cols), scores.shape).copy()
    groups = max(_MIN_GROUPS, _GROUPS_PER_K * k)
    if num_cols < _MIN_GROUP_WIDTH * groups:
        return _partition_top_k(scores, k)
    return _pruned_top_k(scores, k, groups)


def _partition_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The short-row path: ``argpartition`` picks a set in O(n) per row.

    ``argpartition`` splits ties *at* the k-th value arbitrarily, so rows
    whose boundary value also occurs outside the kept set are repaired
    to keep the lowest positions; everything else is exact by
    construction.
    """
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


def _pruned_top_k(scores: np.ndarray, k: int, groups: int) -> np.ndarray:
    """The long-row path: order only the entries that can be in the top k.

    Column ``c`` of the first ``width * groups`` columns belongs to group
    ``c % groups``; a reshape reads those groups as a strided view, so a
    C-contiguous block is not copied.  The k-th largest group maximum is
    a lower bound of the row's k-th best score (k distinct entries reach
    it), so every entry at or above it, boundary ties included, is kept
    as a candidate, and the top k of the candidates by (score desc,
    position asc) is the answer.  Rows holding NaN or whose bound is not
    finite are answered by :func:`_partition_top_k` instead, and so are
    rows with more than ``groups`` candidates (heavy ties at the bound)
    once the block averages more than that, which keeps the padded lines
    short.
    """
    num_rows, num_cols = scores.shape
    width = num_cols // groups
    maxima = scores[:, : width * groups].reshape(num_rows, width, groups).max(axis=1)
    bound = np.partition(maxima, groups - k, axis=1)[:, groups - k]
    pruned = np.isfinite(bound) & ~np.isnan(maxima).any(axis=1)
    if width * groups < num_cols:
        pruned &= ~np.isnan(scores[:, width * groups:]).any(axis=1)
    candidate = scores >= bound[:, None]
    if np.count_nonzero(candidate) > num_rows * groups:  # heavy ties somewhere
        pruned &= np.count_nonzero(candidate, axis=1) <= groups
    if not pruned.any():
        return _partition_top_k(scores, k)
    candidate[~pruned] = False
    # One padded line per row: its candidates in position order, then
    # -inf (below any candidate, since every bound is finite).
    flat = np.flatnonzero(candidate)
    rows, cols = np.divmod(flat, num_cols)
    counts = np.bincount(rows, minlength=num_rows)
    slots = np.arange(len(flat)) - (np.cumsum(counts) - counts)[rows]
    line = int(counts.max())
    values = np.full((num_rows, line), -np.inf)
    values[rows, slots] = scores[rows, cols]
    positions = np.zeros((num_rows, line), dtype=np.intp)
    positions[rows, slots] = cols
    kth = np.partition(values, line - k, axis=1)[:, line - k, None]
    above = values > kth
    tied = values == kth
    room = k - np.count_nonzero(above, axis=1)
    # The ties at the k-th score fill the remaining room lowest position
    # first; an empty line (a row left to argpartition) keeps k pads,
    # overwritten below.
    keep = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    out = positions[keep].reshape(num_rows, k)
    if not pruned.all():
        rest = np.flatnonzero(~pruned)
        out[rest] = _partition_top_k(scores[rest], k)
    return out
