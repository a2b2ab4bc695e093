"""``top_k_columns``: both select paths keep exactly the stable-argsort set.

A shape rule on ``(n, k)`` sends long rows to the pruned path (bound each
row's k-th best score by the k-th largest of many column-group maxima,
then order only the entries at or above it) and short rows to
``argpartition``.  The properties draw shapes on both sides of the rule,
scores from a small value set (so ties at the k-th score are common)
mixed with ``-inf``, and contiguous as well as non-contiguous layouts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import topk
from repro.core.topk import top_k_columns


def _reference(scores: np.ndarray, k: int) -> np.ndarray:
    return np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :k], axis=1)


def _pruned_from(k: int) -> int:
    """The shortest row the pruned path takes for *k*."""
    return topk._MIN_GROUP_WIDTH * max(topk._MIN_GROUPS, topk._GROUPS_PER_K * k)


def _lay_out(scores: np.ndarray, layout: str) -> np.ndarray:
    if layout == "fortran":
        return np.asfortranarray(scores)
    if layout == "strided":
        return np.repeat(scores, 2, axis=1)[:, ::2]
    return scores


@st.composite
def _score_blocks(draw):
    k = draw(st.sampled_from([1, 2, 7, 10, 32, 50]))
    threshold = _pruned_from(k)
    if draw(st.booleans()):
        num_cols = draw(st.integers(threshold, threshold + 700))
    else:
        num_cols = draw(st.integers(k + 1, threshold - 1))
    num_rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 5, 300, 3000]))
    scores = rng.integers(0, levels, (num_rows, num_cols)).astype(np.float64)
    scores[rng.random(scores.shape) < draw(st.sampled_from([0.0, 0.5, 0.97]))] = -np.inf
    layout = draw(st.sampled_from(["contiguous", "fortran", "strided"]))
    return _lay_out(scores, layout), k


@settings(max_examples=150, deadline=None)
@given(_score_blocks())
def test_matches_stable_argsort(block):
    scores, k = block
    np.testing.assert_array_equal(top_k_columns(scores, k), _reference(scores, k))


@pytest.mark.parametrize(
    "shape, k, pruned",
    [
        ((4, 24_000), 50, True),
        ((1, 3_000), 10, True),
        ((8, 5_000), 256, False),  # the PQ prune's refine of a union
        ((2, 1_000), 1, False),
    ],
)
def test_shape_rule_picks_the_path(monkeypatch, shape, k, pruned):
    calls = []
    original = topk._pruned_top_k

    def spy(scores, k, groups):
        calls.append(groups)
        return original(scores, k, groups)

    monkeypatch.setattr(topk, "_pruned_top_k", spy)
    scores = np.random.default_rng(0).standard_normal(shape)
    np.testing.assert_array_equal(top_k_columns(scores, k), _reference(scores, k))
    assert bool(calls) == pruned


def test_nan_rows_get_the_argpartition_answer():
    scores = np.random.default_rng(1).standard_normal((5, 24_000))
    scores[1, [5, 700, 20_000]] = np.nan  # inside the column groups
    scores[2, -1] = np.nan  # in the columns past the last full group
    scores[3] = np.nan
    scores[4, 3:] = -np.inf  # three finite entries: the bound is -inf
    got = top_k_columns(scores, 10)
    np.testing.assert_array_equal(got, topk._partition_top_k(scores, 10))
    np.testing.assert_array_equal(got[[0, 4]], _reference(scores[[0, 4]], 10))


def test_heavy_ties_fall_back_without_changing_the_answer():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal((3, 24_000))
    scores[1] = 0.0  # every column tied
    scores[2, ::7] = scores[2].max()  # thousands tied at the top
    for k in (1, 10, 64):
        np.testing.assert_array_equal(top_k_columns(scores, k), _reference(scores, k))
