"""The shared nearest-centroid routine and k-means loop against the loops they replaced.

:func:`repro.index.kmeans.nearest_centroids` and
:func:`~repro.index.kmeans.deterministic_kmeans` serve both the IVF
cells and the PQ codebooks.  They must give the bits of the reference
loops in :mod:`tests.index.ivf_reference`: the per-side nearest-centroid
routines (large distance blocks, a stable sort for ``k > 1``) and the
``np.add.at`` Lloyd loops.  Values come from a small grid, so distance
ties are common and every sum is exact whatever the block height.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.models import make_complex
from repro.index import kmeans, pq
from repro.index.ivf import IVFIndex
from repro.index.kmeans import deterministic_kmeans, nearest_centroids
from repro.index.pq import PQConfig, ProductQuantizer
from tests.index.ivf_reference import (
    nearest_cells,
    nearest_subspace,
    reference_kmeans,
    subspace_kmeans,
)

pytestmark = pytest.mark.index

#: NaN and inf rows are part of the contract; their products warn.
non_finite = pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")

#: Coordinates on a coarse grid: distances tie often and stay exact.
GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def grid_points(draw, rows: int, width: int) -> np.ndarray:
    return draw(arrays(np.float64, (rows, width), elements=st.sampled_from(GRID)))


@st.composite
def assignment_cases(draw):
    width = draw(st.sampled_from([1, 2, 16]))
    count = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(4, count)))
    points = grid_points(draw, draw(st.integers(1, 40)), width)
    centroids = grid_points(draw, count, width)
    if count > 1 and draw(st.booleans()):
        centroids[-1] = centroids[0]  # a duplicate centroid: an exact tie
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if special is not None:
        rows = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=3))
        points[rows, draw(st.integers(0, width - 1))] = special
    # Block budgets of 1 to 48 elements split the rows into many blocks.
    block = draw(st.sampled_from([1, 5, 24, 48, kmeans._BLOCK_ELEMENTS]))
    return points, centroids, k, block


@non_finite
@settings(max_examples=300, deadline=None)
@given(case=assignment_cases())
def test_nearest_centroids_equal_the_reference(case):
    points, centroids, k, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kmeans, "_BLOCK_ELEMENTS", block)
        got = nearest_centroids(points, centroids, k)
    assert got.dtype == np.int32 and got.shape == (len(points), k)
    np.testing.assert_array_equal(got, nearest_cells(points, centroids, k))
    if k == 1:
        np.testing.assert_array_equal(got[:, 0], nearest_subspace(points, centroids))


@non_finite
def test_non_finite_rows_keep_the_stable_sort():
    points = np.array([[0.0, 0.0], [np.nan, 0.0], [np.inf, 1.0], [-np.inf, 0.0], [1.0, 1.0]])
    centroids = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    got = nearest_centroids(points, centroids, 3)
    np.testing.assert_array_equal(got, nearest_cells(points, centroids, 3))
    np.testing.assert_array_equal(got[0], [1, 2, 0])  # the tie goes to the lower id


def test_a_lone_last_row_is_not_its_own_block(monkeypatch):
    """Three rows in two-row blocks: the third row shares a block with
    the second, so BLAS multiplies it as a matrix, as in one big block."""
    rng = np.random.default_rng(3)
    points, centroids = rng.normal(size=(3, 16)), rng.normal(size=(5, 16))
    calls = []
    real = np.matmul

    def spy(left, right, **kwargs):
        calls.append(len(left))
        return real(left, right, **kwargs)

    monkeypatch.setattr(kmeans, "_BLOCK_ELEMENTS", 10)
    monkeypatch.setattr(np, "matmul", spy)
    got = nearest_centroids(points, centroids, 2)
    monkeypatch.undo()
    assert calls == [2, 2]
    np.testing.assert_array_equal(got, nearest_cells(points, centroids, 2))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    width=st.sampled_from([1, 2, 16]),
    nlist=st.integers(1, 12),
    iters=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    train_sample=st.sampled_from([None, 5, 30]),
)
def test_kmeans_equals_the_reference_loop(data, width, nlist, iters, seed, train_sample):
    points = grid_points(data.draw, data.draw(st.integers(nlist, 80)), width)
    knobs = {"seed": seed, "iters": iters, "train_sample": train_sample}
    got = deterministic_kmeans(points, nlist, **knobs)
    expected = reference_kmeans(points, nlist, **knobs)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_kmeans_on_gaussian_points_equals_the_reference_loop():
    points = np.random.default_rng(11).normal(size=(2_000, 16))
    for seed in range(3):
        got = deterministic_kmeans(points, 40, seed=seed, iters=6)
        assert got.tobytes() == reference_kmeans(points, 40, seed=seed, iters=6).tobytes()


class TestProductQuantizer:
    CONFIG = PQConfig(m=4, train_sample=150, iters=5, seed=3)

    @pytest.fixture
    def tied(self):
        """Rows from a grid with many exact duplicates."""
        rng = np.random.default_rng(5)
        return np.asarray(GRID)[rng.integers(0, len(GRID), size=(400, 8))]

    def test_fit_equals_the_subspace_reference(self, tied, monkeypatch):
        got = ProductQuantizer.fit(tied, self.CONFIG)
        # The codebook loop the shared k-means replaced, on the same streams.
        monkeypatch.setattr(
            pq,
            "deterministic_kmeans",
            lambda train, ks, seed, iters: subspace_kmeans(
                train, ks, np.random.default_rng(seed), iters
            ),
        )
        expected = ProductQuantizer.fit(tied, self.CONFIG)
        assert got.codebooks.tobytes() == expected.codebooks.tobytes()

    def test_encode_equals_the_subspace_reference(self, tied):
        quantizer = ProductQuantizer.fit(tied, self.CONFIG)
        codes = quantizer.encode(tied)
        sub = quantizer.sub_dim
        for j in range(quantizer.m):
            block = tied[:, j * sub : (j + 1) * sub]
            np.testing.assert_array_equal(
                codes[:, j], nearest_subspace(block, quantizer.codebooks[j])
            )
        assert codes.dtype == np.uint8


def test_whole_build_ignores_the_block_size(monkeypatch):
    """An IVF+PQ build (folded width 16, 2-wide PQ subspaces) with
    two-row distance blocks equals the default build byte for byte:
    BLAS rounds each row alike at any block height for these shapes."""

    def build():
        model = make_complex(2_999, 3, 16, np.random.default_rng(21))
        index = IVFIndex(
            model, nlist=48, spill=2, seed=4, pq=PQConfig(m=8, train_sample=1_000, iters=4)
        )
        index.build()
        return index._arrays()

    default = build()
    monkeypatch.setattr(kmeans, "_BLOCK_ELEMENTS", 2)
    tiny = build()
    assert sorted(tiny) == sorted(default) and len(default) == 3 * 2 * 5
    for name, array in default.items():
        assert tiny[name].dtype == array.dtype, name
        assert tiny[name].shape == array.shape, name
        assert tiny[name].tobytes() == array.tobytes(), name
