"""The one nearest-centroid routine and the one seeded k-means loop.

Both fit and encode the IVF cells (:mod:`repro.index.ivf`) and the PQ
codebooks (:mod:`repro.index.pq`); ties always go to the lower centroid id.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServingError

#: Elements of one ``(rows, centroids)`` distance block: 512 KiB of
#: float64, which stays in L2 across the passes made over it.
_BLOCK_ELEMENTS = 1 << 16


def nearest_centroids(points: np.ndarray, centroids: np.ndarray, k: int = 1) -> np.ndarray:
    """``(n, k)`` int32 ids of each point's *k* nearest centroids, nearest first.

    Ranks ``x·(−2c) + ‖c‖²`` (the point norm is constant per row; scaling
    by −2 is exact unless a product is subnormal or overflows) in blocks
    of at most ``_BLOCK_ELEMENTS`` distances in one reused buffer.  No
    block of a longer input holds one row alone: BLAS would take it as a
    matrix-vector product, which rounds differently.  The *k* nearest are
    *k* ``argmin`` passes, each pick masked to ``+inf``; ``argmin`` takes
    the first minimum, so ties order as in a stable sort, which rows
    holding a non-finite distance use instead.
    """
    n, count = len(points), len(centroids)
    centroid_sq = np.einsum("cf,cf->c", centroids, centroids)
    scaled = (centroids * -2.0).T
    out = np.empty((n, k), dtype=np.int32)
    rows = max(2, _BLOCK_ELEMENTS // count)
    buffer = np.empty(min(rows, n) * count)
    for start in range(0, n, rows):
        start = min(start, max(n - 2, 0))  # a lone last row joins its neighbour
        stop = min(start + rows, n)
        block = buffer[: (stop - start) * count].reshape(stop - start, count)
        np.matmul(points[start:stop], scaled, out=block)
        block += centroid_sq
        if k == 1:
            out[start:stop, 0] = block.argmin(axis=1)
            continue
        odd = np.flatnonzero(~np.isfinite(block).all(axis=1))
        fallback = np.argsort(block[odd], axis=1, kind="stable")[:, :k]
        lines = np.arange(stop - start)
        for column in range(k):
            picks = block.argmin(axis=1)
            out[start:stop, column] = picks
            block[lines, picks] = np.inf
        out[start + odd] = fallback
    return out


def deterministic_kmeans(
    points: np.ndarray,
    nlist: int,
    seed: int | np.random.SeedSequence = 0,
    iters: int = 10,
    train_sample: int | None = None,
) -> np.ndarray:
    """Seeded fixed-iteration k-means; returns ``(nlist, f)`` centroids.

    Initial centroids are ``nlist`` distinct points drawn by the seeded
    generator; every later step is deterministic numpy, so the result
    depends only on ``(points, nlist, seed, iters, train_sample)``.
    Cells that go empty keep their previous centroid (no random
    re-seeding — that would make the iteration count observable in the
    output).

    *train_sample* bounds the fitting cost at scale: centroids are
    fitted on a seeded row subset of that size (the caller still assigns
    *every* point to the fitted centroids).  ``None`` — the default —
    fits on all rows.
    """
    n, f = points.shape
    if not 1 <= nlist <= n:
        raise ServingError(f"nlist must be in [1, {n}], got {nlist}")
    if iters < 1:
        raise ServingError(f"iters must be >= 1, got {iters}")
    if train_sample is not None and train_sample < 1:
        raise ServingError(f"train_sample must be >= 1, got {train_sample}")
    rng = np.random.default_rng(seed)
    if train_sample is not None and train_sample < n:
        sample = np.sort(rng.choice(n, size=max(train_sample, nlist), replace=False))
        points = np.asarray(points[sample])
        n = len(points)
    initial = np.sort(rng.choice(n, size=nlist, replace=False))
    centroids = points[initial].astype(np.float64, copy=True)
    for _ in range(iters):
        assign = nearest_centroids(points, centroids)[:, 0]
        counts = np.bincount(assign, minlength=nlist)
        occupied = counts > 0
        for j in range(f):
            # bincount adds its weights in input order, from zero, as a
            # row-wise np.add.at does: the sums are the same bits.
            sums = np.bincount(assign, weights=points[:, j], minlength=nlist)
            centroids[occupied, j] = sums[occupied] / counts[occupied]
    return centroids
