"""Loop-at-a-time IVF and PQ building blocks: the oracles of the index build.

These are the implementations :mod:`repro.index.kmeans` and the
vectorised :meth:`IVFIndex.update_entities` replaced, kept unchanged
apart from their names:

* :func:`nearest_cells` — the IVF assignment: 32 MiB distance blocks
  and a stable ``argsort`` of every row for ``spill > 1``;
* :func:`nearest_subspace` — the PQ encoder's nearest codeword;
* :func:`reference_kmeans` and :func:`subspace_kmeans` — the two Lloyd
  loops, accumulating cell sums with ``np.add.at``;
* :func:`reference_update_entities` — the incremental splice with its
  two Python loops over every cell of every partition.

Nothing in ``src/`` imports this module.  The shared routines must give
the same bits; ``tests/index/test_kmeans.py`` and
``tests/index/test_update_entities.py`` check that they do.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ServingError
from repro.index.folded_vectors import fold_candidate_rows
from repro.index.ivf import IndexUpdateReport, _Partition

#: Element budget for one ``(chunk, nlist)`` distance matrix.
ASSIGN_CHUNK_ELEMENTS = 1 << 22


def nearest_cells(points: np.ndarray, centroids: np.ndarray, spill: int) -> np.ndarray:
    """``(n, spill)`` nearest-centroid ids per point, ties toward lower id."""
    n = len(points)
    centroid_sq = np.einsum("cf,cf->c", centroids, centroids)
    out = np.empty((n, spill), dtype=np.int32)
    chunk = max(1, ASSIGN_CHUNK_ELEMENTS // max(1, len(centroids)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        distances = points[start:stop] @ centroids.T
        distances *= -2.0
        distances += centroid_sq[None, :]
        if spill == 1:
            # argmin returns the first minimum: the lower cell id.
            out[start:stop, 0] = np.argmin(distances, axis=1)
        else:
            out[start:stop] = np.argsort(distances, axis=1, kind="stable")[:, :spill]
    return out


def nearest_subspace(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id per point (Euclidean), ties toward lower id."""
    n = len(points)
    centroid_sq = np.einsum("cf,cf->c", centroids, centroids)
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, ASSIGN_CHUNK_ELEMENTS // max(1, len(centroids)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        distances = points[start:stop] @ centroids.T
        distances *= -2.0
        distances += centroid_sq[None, :]
        out[start:stop] = np.argmin(distances, axis=1)
    return out


def reference_kmeans(
    points: np.ndarray,
    nlist: int,
    seed=0,
    iters: int = 10,
    train_sample: int | None = None,
) -> np.ndarray:
    """The IVF cell k-means: seeded init, ``np.add.at`` cell sums."""
    n, f = points.shape
    rng = np.random.default_rng(seed)
    if train_sample is not None and train_sample < n:
        sample = np.sort(rng.choice(n, size=max(train_sample, nlist), replace=False))
        points = np.asarray(points[sample])
        n = len(points)
    initial = np.sort(rng.choice(n, size=nlist, replace=False))
    centroids = points[initial].astype(np.float64, copy=True)
    for _ in range(iters):
        assign = nearest_cells(points, centroids, spill=1)[:, 0]
        counts = np.bincount(assign, minlength=nlist)
        sums = np.zeros((nlist, f), dtype=np.float64)
        np.add.at(sums, assign, points)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids


def subspace_kmeans(
    points: np.ndarray, ks: int, rng: np.random.Generator, iters: int
) -> np.ndarray:
    """The PQ codebook k-means over one subspace; ``(ks, sub)`` centroids."""
    n, sub = points.shape
    initial = np.sort(rng.choice(n, size=ks, replace=False))
    centroids = points[initial].astype(np.float64, copy=True)
    for _ in range(iters):
        assign = nearest_subspace(points, centroids)
        counts = np.bincount(assign, minlength=ks)
        sums = np.zeros((ks, sub), dtype=np.float64)
        np.add.at(sums, assign, points)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids


def reference_update_entities(index, dirty, drift_threshold: float = 0.5) -> IndexUpdateReport:
    """:meth:`IVFIndex.update_entities` with its per-cell loops, on *index*."""
    start = time.perf_counter()
    if not 0.0 < drift_threshold <= 1.0:
        raise ServingError(f"drift_threshold must be in (0, 1], got {drift_threshold}")
    dirty = np.unique(np.asarray(dirty, dtype=np.int64))
    if len(dirty) and (dirty[0] < 0 or dirty[-1] >= index.model.num_entities):
        raise ServingError(f"dirty entity ids out of range [0, {index.model.num_entities})")
    if not len(dirty) or not index._partitions:
        index._version = index.model.scoring_version
        seconds = time.perf_counter() - start
        return IndexUpdateReport(0, int(len(dirty)), 0, 0.0, False, seconds)

    staged = []
    changed = 0
    existing_total = 0
    max_new = 0
    for key, partition in index._partitions.items():
        relation, side = key
        folded = fold_candidate_rows(index.model, relation, side, dirty)
        assignments = nearest_cells(folded, partition.centroids, index.spill)
        old_count = int(len(partition.members)) // index.spill
        existing = dirty[dirty < old_count]
        max_new = max(max_new, int(len(dirty) - len(existing)))
        if len(existing):
            old_cells: dict[int, set[int]] = {}
            for cell_id in range(index.nlist):
                cell = partition.cell(cell_id)
                for entity in cell[np.isin(cell, existing)]:
                    old_cells.setdefault(int(entity), set()).add(cell_id)
            positions = np.searchsorted(dirty, existing)
            for entity, row in zip(existing, assignments[positions]):
                if old_cells.get(int(entity), set()) != set(int(c) for c in row):
                    changed += 1
            existing_total += len(existing)
        staged.append((key, folded, assignments, old_count))

    drift = changed / existing_total if existing_total else 0.0
    if drift > drift_threshold:
        index.invalidate()
        return IndexUpdateReport(
            0, int(len(dirty)), max_new, drift, True, time.perf_counter() - start
        )

    for key, folded, assignments, old_count in staged:
        partition = index._partitions[key]
        flat = assignments.ravel()
        add_ids = np.repeat(dirty, assignments.shape[1]).astype(np.int32)
        order = np.argsort(flat, kind="stable")
        add_sorted = add_ids[order]
        add_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(flat, minlength=index.nlist))]
        ).astype(np.int64)
        cells = []
        for cell_id in range(index.nlist):
            kept = partition.cell(cell_id)
            kept = kept[~np.isin(kept, dirty)]
            adds = add_sorted[add_offsets[cell_id] : add_offsets[cell_id + 1]]
            cells.append(np.sort(np.concatenate([kept, adds])) if len(adds) else kept)
        members = (
            np.concatenate(cells) if cells else np.empty(0, dtype=np.int32)
        ).astype(np.int32, copy=False)
        offsets = np.concatenate([[0], np.cumsum([len(cell) for cell in cells])]).astype(
            np.int64
        )
        codes = None
        if partition.pq is not None:
            codes = np.empty(
                (index.model.num_entities, partition.codes.shape[1]), dtype=np.uint8
            )
            codes[:old_count] = partition.codes[:old_count]
            codes[dirty] = partition.pq.encode(folded)
        index._partitions[key] = _Partition(
            partition.centroids, members, offsets, codes=codes, pq=partition.pq
        )
    index._version = index.model.scoring_version
    return IndexUpdateReport(
        len(staged), int(len(dirty)), max_new, drift, False, time.perf_counter() - start
    )
