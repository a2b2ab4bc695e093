"""IVF candidate index: deterministic k-means cells with an ``nprobe`` knob.

The classic inverted-file recipe adapted to the multi-embedding scoring
geometry:

* **Partitioning** — for every queried ``(relation, side)`` the entities'
  *folded* candidate vectors (:mod:`repro.index.folded_vectors`) are
  clustered into ``nlist`` cells by a seeded, fixed-iteration k-means,
  so two builds from the same model and seed are identical arrays.
  Each entity is assigned to its ``spill`` nearest cells (multi-
  assignment): boundary entities — exactly the ones coarse quantizers
  lose — appear in several cells, buying recall at a small storage cost.
* **Probing** — a query ranks cells by the inner product between its
  raw anchor vector and the cell centroids (the same product the exact
  score uses, by linearity of the fold), then unions the members of the
  top ``nprobe`` cells.  Cost per query: ``O(nlist·f)`` coarse scoring
  plus exact re-ranking of ``O(num_probed)`` candidates, instead of the
  ``O(N·f)`` full sweep.
* **PQ coarse pass** (optional) — with a :class:`~repro.index.pq.PQConfig`
  the probed union is additionally pruned by an asymmetric-distance scan
  over product-quantized folded vectors: uint8 codes, one lookup table
  per query, ``refine`` survivors.  The exact re-rank downstream is
  untouched, so PQ trades recall for work, never score correctness, and
  ``pq=None`` (the default) is bit-identical to the pre-PQ index.
* **Exactness escape hatch** — ``nprobe >= nlist`` probes everything;
  the batch is flagged ``covers_all`` and the serving layer runs its
  ordinary full-sweep path, making the degenerate configuration
  bit-identical to serving without an index.

Partitions are built lazily on first use (only queried relations pay),
or eagerly via :meth:`IVFIndex.build`, which fans the independent
per-partition k-means runs out across worker processes through
:func:`repro.parallel.pool.run_tasks`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.interaction import MultiEmbeddingModel
from repro.core.topk import top_k_columns
from repro.errors import CorruptArtifactError, ServingError
from repro.index.base import (
    CandidateBatch,
    CandidateIndex,
    IndexBuildReport,
    check_loaded_meta,
    read_index_arrays,
    read_index_meta,
)
from repro.index.folded_vectors import FoldedCandidateSource, fold_candidate_rows
from repro.index.pq import PQConfig, ProductQuantizer
from repro.obs.trace import trace_scope
from repro.parallel.payload import ModelPayload, model_from_payload, model_to_payload
from repro.parallel.pool import run_tasks

#: Element budget for one ``(chunk, nlist)`` distance matrix.
_ASSIGN_CHUNK_ELEMENTS = 1 << 22


def _nearest_cells(points: np.ndarray, centroids: np.ndarray, spill: int) -> np.ndarray:
    """``(n, spill)`` nearest-centroid ids per point, ties toward lower id.

    Distances are ranked via ``‖x−c‖² = ‖x‖² − 2x·c + ‖c‖²`` with the
    point norm dropped (constant per row); the chunked loop bounds the
    live distance matrix regardless of ``len(points)``.
    """
    n = len(points)
    centroid_sq = np.einsum("cf,cf->c", centroids, centroids)
    out = np.empty((n, spill), dtype=np.int32)
    chunk = max(1, _ASSIGN_CHUNK_ELEMENTS // max(1, len(centroids)))
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


def deterministic_kmeans(
    points: np.ndarray,
    nlist: int,
    seed: int = 0,
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
    fits on all rows and is bit-identical to the historical behaviour.
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
        assign = _nearest_cells(points, centroids, spill=1)[:, 0]
        counts = np.bincount(assign, minlength=nlist)
        sums = np.zeros((nlist, f), dtype=np.float64)
        np.add.at(sums, assign, points)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids


class _Partition:
    """One ``(relation, side)`` inverted file: centroids + CSR member lists.

    With PQ enabled the partition also carries the relation's uint8
    codes (one row per entity, entity-id order) and the trained
    quantizer, so the ADC scan needs no folded matrix at query time.
    """

    __slots__ = ("centroids", "members", "offsets", "codes", "pq")

    def __init__(
        self,
        centroids: np.ndarray,
        members: np.ndarray,
        offsets: np.ndarray,
        codes: np.ndarray | None = None,
        pq: ProductQuantizer | None = None,
    ):
        self.centroids = centroids
        self.members = members  # int32 entity ids, cell-major, ascending per cell
        self.offsets = offsets  # (nlist + 1,) int64 prefix sums
        self.codes = codes  # (num_entities, m) uint8, or None
        self.pq = pq

    def cell(self, index: int) -> np.ndarray:
        return self.members[self.offsets[index] : self.offsets[index + 1]]

    def cell_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass(frozen=True)
class IndexUpdateReport:
    """What one :meth:`IVFIndex.update_entities` call did.

    ``drift`` is the fraction of *pre-existing* dirty entities whose
    cell assignment changed, pooled over all built partitions (freshly
    created entities always get new assignments and are excluded, so
    drift measures how far the frozen centroids have decayed, not how
    much the graph grew).  When drift exceeds the caller's threshold the
    splice is discarded and the whole index is invalidated instead —
    ``rebuild_triggered`` reports that outcome.
    """

    partitions_updated: int
    entities_updated: int
    new_entities: int
    drift: float
    rebuild_triggered: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "partitions_updated": self.partitions_updated,
            "entities_updated": self.entities_updated,
            "new_entities": self.new_entities,
            "drift": self.drift,
            "rebuild_triggered": self.rebuild_triggered,
            "seconds": self.seconds,
        }


def _partition_seed(seed: int, relation: int, side: str) -> np.random.SeedSequence:
    """Distinct deterministic stream per partition: the SeedSequence spawn
    key mixes the index seed with the partition coordinates."""
    return np.random.SeedSequence(
        [int(seed), int(relation), 0 if side == "tail" else 1]
    )


def _build_partition(
    source: FoldedCandidateSource,
    relation: int,
    side: str,
    nlist: int,
    seed: int,
    iters: int,
    spill: int,
    train_sample: int | None = None,
    pq: PQConfig | None = None,
) -> _Partition:
    """Cluster one relation's folded candidate matrix into an inverted file."""
    matrix = source.candidate_matrix(relation, side)
    centroids = deterministic_kmeans(
        matrix,
        nlist,
        seed=_partition_seed(seed, relation, side),
        iters=iters,
        train_sample=train_sample,
    )
    assignments = _nearest_cells(matrix, centroids, spill=min(spill, nlist))
    flat = assignments.ravel()
    ids = np.repeat(
        np.arange(source.num_entities, dtype=np.int32), assignments.shape[1]
    )
    # Stable sort by cell keeps the entity-major input order, so members
    # of each cell come out in ascending entity id.
    order = np.argsort(flat, kind="stable")
    members = ids[order]
    counts = np.bincount(flat, minlength=nlist)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    codes = quantizer = None
    if pq is not None:
        # Same mixing recipe as the cell seed, with an extra component so
        # the PQ codebooks never reuse the k-means stream.
        pq_seed = np.random.SeedSequence(
            [int(seed), int(relation), 0 if side == "tail" else 1, 1]
        )
        quantizer = ProductQuantizer.fit(matrix, pq, seed=pq_seed)
        codes = quantizer.encode(matrix)
    return _Partition(centroids, members, offsets, codes=codes, pq=quantizer)


# --------------------------------------------------------- build fan-out
_BUILD_CTX: dict | None = None


def _init_build_context(
    payload: ModelPayload,
    nlist: int,
    seed: int,
    iters: int,
    spill: int,
    train_sample: int | None = None,
    pq: dict | None = None,
) -> None:
    """Pool initializer: rebuild the model once per worker process."""
    global _BUILD_CTX
    _BUILD_CTX = {
        "source": FoldedCandidateSource(model_from_payload(payload)),
        "nlist": nlist,
        "seed": seed,
        "iters": iters,
        "spill": spill,
        "train_sample": train_sample,
        "pq": PQConfig.from_dict(pq) if pq is not None else None,
    }


def _build_partition_task(task: tuple[int, str]):
    """Worker task: build one ``(relation, side)`` partition, return arrays."""
    relation, side = task
    ctx = _BUILD_CTX
    if ctx is None:
        raise ServingError("index build context not initialised in this process")
    partition = _build_partition(
        ctx["source"],
        relation,
        side,
        ctx["nlist"],
        ctx["seed"],
        ctx["iters"],
        ctx["spill"],
        train_sample=ctx["train_sample"],
        pq=ctx["pq"],
    )
    codebooks = partition.pq.codebooks if partition.pq is not None else None
    return (
        relation,
        side,
        partition.centroids,
        partition.members,
        partition.offsets,
        partition.codes,
        codebooks,
    )


#: Candidates one pass of :meth:`IVFIndex.candidate_lists` holds at a time.
_CANDIDATE_BUDGET = 1 << 16


def _runs(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive ``[lo, hi)`` runs of items whose *sizes* sum to at most
    *budget* (an item larger than the budget runs alone)."""
    ends = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < len(sizes):
        done = ends[cuts[-1] - 1] if cuts[-1] else 0
        stop = int(np.searchsorted(ends, done + budget, side="right"))
        cuts.append(max(stop, cuts[-1] + 1))
    return list(zip(cuts[:-1], cuts[1:]))


def _adc_select(pq_groups, luts, ids, starts, slots, spans, refine):
    """The ``refine`` best of each of *slots* by ADC score.

    One ADC call scores every candidate of every slot against that
    slot's lookup table in *luts*; the scores are laid out one slot per
    line (``-inf`` past each union) for one argpartition selection.
    Returns the survivors' ascending positions in *ids*, one
    ``(refine,)`` line per slot.
    """
    scan_slots = np.repeat(slots, spans)
    scan_starts = np.cumsum(spans) - spans  # each slot's first scan entry
    scan_ids = ids[np.arange(len(scan_slots)) + np.repeat(starts - scan_starts, spans)]
    codes = np.empty((len(scan_ids), luts.shape[1]), dtype=np.uint8)
    for partition, lo, hi, _ in pq_groups:
        first, stop = np.searchsorted(scan_slots, [lo, hi])
        # np.take copies whole code rows; fancy indexing is ~10x slower.
        codes[first:stop] = np.take(partition.codes, scan_ids[first:stop], axis=0)
    approx = ProductQuantizer.adc_scores(luts, codes, rows=scan_slots)
    width = int(spans.max())
    scores = np.full((len(slots), width), -np.inf)
    scores.reshape(-1)[
        np.arange(len(approx)) + np.repeat(np.arange(len(slots)) * width - scan_starts, spans)
    ] = approx
    return top_k_columns(scores, refine) + starts[:, None]


class IVFIndex(CandidateIndex):
    """Inverted-file approximate candidate index over a multi-embedding model.

    Parameters
    ----------
    model:
        The (trained) model whose entities are indexed.
    nlist:
        Number of k-means cells per partition; default ``≈ 2·√N``.
    nprobe:
        Default number of cells probed per query (overridable per
        search); default ``nlist // 8``.  ``nprobe == nlist`` degrades
        to the exact full sweep.
    seed, iters:
        K-means determinism knobs (seeded init, fixed iteration count).
    spill:
        Cells each entity is assigned to (multi-assignment factor).
    pq:
        Optional :class:`~repro.index.pq.PQConfig`; when set, probed
        unions larger than ``pq.refine`` are pruned to their
        ``pq.refine`` best candidates by an ADC scan over uint8 codes
        before the exact re-rank.  ``None`` (default) keeps the
        unpruned union — bit-identical to the pre-PQ index.
    train_sample:
        Seeded row-sample size for the cell k-means (assignment still
        covers every entity); ``None`` fits on all rows.
    fold_cache:
        LRU capacity of the folded-matrix cache (matrices are
        ``(N, n_e·D)`` — at million-entity scale each one is the
        dominant build-time allocation).
    on_stale:
        ``"rebuild"`` (drop partitions when the model trains; default)
        or ``"error"`` (raise :class:`~repro.errors.StaleIndexError`).
    workers:
        Worker processes for eager :meth:`build` fan-out (``0`` =
        in-process; lazy per-query builds are always in-process).
    """

    kind = "ivf"

    def __init__(
        self,
        model: MultiEmbeddingModel,
        nlist: int | None = None,
        nprobe: int | None = None,
        *,
        seed: int = 0,
        iters: int = 10,
        spill: int = 2,
        pq: PQConfig | None = None,
        train_sample: int | None = None,
        fold_cache: int = 2,
        on_stale: str = "rebuild",
        workers: int = 0,
    ) -> None:
        super().__init__(model, on_stale=on_stale)
        self._source = FoldedCandidateSource(
            model, max_cached=fold_cache, metrics=self.metrics
        )
        n = model.num_entities
        if nlist is None:
            nlist = max(1, min(n, int(round(2.0 * math.sqrt(n)))))
        if not 1 <= nlist <= n:
            raise ServingError(f"nlist must be in [1, {n}], got {nlist}")
        self.nlist = int(nlist)
        if iters < 1:
            raise ServingError(f"iters must be >= 1, got {iters}")
        if spill < 1:
            raise ServingError(f"spill must be >= 1, got {spill}")
        if workers < 0:
            raise ServingError(f"workers must be >= 0, got {workers}")
        if seed < 0:
            raise ServingError(f"seed must be >= 0, got {seed}")
        if train_sample is not None and train_sample < 1:
            raise ServingError(f"train_sample must be >= 1, got {train_sample}")
        if pq is not None and not isinstance(pq, PQConfig):
            raise ServingError(f"pq must be a PQConfig or None, got {type(pq).__name__}")
        if pq is not None and self._source.feature_dim % pq.m != 0:
            raise ServingError(
                f"pq.m must divide the folded feature width {self._source.feature_dim}, "
                f"got m={pq.m}"
            )
        self.seed = int(seed)
        self.iters = int(iters)
        self.spill = int(min(spill, self.nlist))
        self.pq = pq
        self.train_sample = None if train_sample is None else int(train_sample)
        self.workers = int(workers)
        self._nprobe = self._check_nprobe(
            nprobe if nprobe is not None else max(1, self.nlist // 8)
        )
        self._partitions: dict[tuple[int, str], _Partition] = {}
        self.partitions_built = 0
        self.rebuilds = 0

    # --------------------------------------------------------------- knobs
    def _check_nprobe(self, nprobe: int) -> int:
        nprobe = int(nprobe)
        if not 1 <= nprobe <= self.nlist:
            raise ServingError(f"nprobe must be in [1, {self.nlist}], got {nprobe}")
        return nprobe

    @property
    def nprobe(self) -> int:
        """Default cells probed per query."""
        return self._nprobe

    @nprobe.setter
    def nprobe(self, value: int) -> None:
        self._nprobe = self._check_nprobe(value)

    def invalidate(self) -> None:
        """Drop all partitions; they rebuild lazily at the current version."""
        self._partitions.clear()
        if self._version != self.model.scoring_version:
            self.rebuilds += 1
        self._version = self.model.scoring_version

    def bound_to(self, model: MultiEmbeddingModel) -> "IVFIndex":
        """See :meth:`CandidateIndex.bound_to`; the twin folds through its own cache."""
        twin = super().bound_to(model)
        # Attached after construction, which would re-declare the shared
        # counters and could race a concurrent read's increment.
        twin._source = FoldedCandidateSource(model, max_cached=self._source.max_cached)
        twin._source.metrics = self.metrics
        twin._partitions = dict(self._partitions)
        return twin

    @property
    def built_partitions(self) -> tuple[tuple[int, str], ...]:
        """The ``(relation, side)`` partitions currently materialised."""
        return tuple(sorted(self._partitions))

    # --------------------------------------------------------------- build
    def _partition(self, relation: int, side: str) -> _Partition:
        if not 0 <= relation < self.model.num_relations:
            raise ServingError(
                f"relation id {relation} out of range [0, {self.model.num_relations})"
            )
        key = (int(relation), side)
        partition = self._partitions.get(key)
        if partition is None:
            partition = _build_partition(
                self._source,
                key[0],
                side,
                self.nlist,
                self.seed,
                self.iters,
                self.spill,
                train_sample=self.train_sample,
                pq=self.pq,
            )
            self._partitions[key] = partition
            self.partitions_built += 1
        return partition

    def build(
        self,
        relations: np.ndarray | list[int] | None = None,
        sides: tuple[str, ...] = ("tail", "head"),
        workers: int | None = None,
    ) -> IndexBuildReport:
        """Eagerly build partitions (all relations by default).

        Independent ``(relation, side)`` k-means runs are fanned out
        through :func:`repro.parallel.pool.run_tasks`; a worker failure
        surfaces as a :class:`~repro.errors.ServingError` carrying the
        worker traceback.
        """
        start = time.perf_counter()
        self.ensure_fresh()
        if relations is None:
            relations = range(self.model.num_relations)
        wanted = [
            (int(relation), side)
            for side in sides
            for relation in relations
        ]
        missing = [key for key in wanted if key not in self._partitions]
        workers = self.workers if workers is None else int(workers)
        if missing and workers == 0:
            # In-process: build straight off the index's own cached
            # source (same code path as lazy builds) — no module-global
            # context, no recomputed folded matrices.
            for relation, side in missing:
                self._partition(relation, side)
        elif missing:
            outcomes = run_tasks(
                _build_partition_task,
                missing,
                workers=workers,
                initializer=_init_build_context,
                initargs=(
                    model_to_payload(self.model),
                    self.nlist,
                    self.seed,
                    self.iters,
                    self.spill,
                    self.train_sample,
                    self.pq.to_dict() if self.pq is not None else None,
                ),
            )
            for outcome in outcomes:
                if not outcome.ok:
                    raise ServingError(
                        f"index partition build failed:\n{outcome.error}"
                    )
                relation, side, centroids, members, offsets, codes, codebooks = (
                    outcome.value
                )
                self._partitions[(relation, side)] = _Partition(
                    centroids,
                    members,
                    offsets,
                    codes=codes,
                    pq=ProductQuantizer(codebooks) if codebooks is not None else None,
                )
                self.partitions_built += 1
        return IndexBuildReport(
            partitions_built=len(missing),
            partitions_reused=len(wanted) - len(missing),
            seconds=time.perf_counter() - start,
            sides=tuple(sides),
        )

    # --------------------------------------------------- incremental upkeep
    def update_entities(
        self, dirty: np.ndarray, *, drift_threshold: float = 0.5
    ) -> IndexUpdateReport:
        """Re-fold and re-assign only the *dirty* entities, in place.

        The incremental maintenance path for warm-start ingestion: after
        embedding rows change (fine-tune) or appear (growth), each built
        partition re-folds just those rows, re-assigns them against its
        *frozen* centroids, and splices the affected cells' member lists
        — ``O(dirty)`` fold work instead of a full k-means rebuild.  PQ
        codes of dirty rows are re-encoded with the frozen codebooks.
        Cell order, member ascending order, and untouched entities'
        assignments are preserved exactly, and the index resyncs to the
        model's current ``scoring_version`` without counting a rebuild.

        Frozen centroids decay as the graph moves: when more than
        *drift_threshold* of the pre-existing dirty entities change
        cells, the splice is abandoned and :meth:`invalidate` drops the
        partitions for a from-scratch lazy rebuild (``rebuild_triggered``
        in the report).
        """
        start = time.perf_counter()
        if not 0.0 < drift_threshold <= 1.0:
            raise ServingError(
                f"drift_threshold must be in (0, 1], got {drift_threshold}"
            )
        dirty = np.unique(np.asarray(dirty, dtype=np.int64))
        if len(dirty) and (dirty[0] < 0 or dirty[-1] >= self.model.num_entities):
            raise ServingError(
                f"dirty entity ids out of range [0, {self.model.num_entities})"
            )
        if not len(dirty) or not self._partitions:
            # Nothing to splice; adopt the current model version so later
            # queries don't treat an empty/no-op update as staleness.
            self._version = self.model.scoring_version
            return IndexUpdateReport(
                partitions_updated=0,
                entities_updated=int(len(dirty)),
                new_entities=0,
                drift=0.0,
                rebuild_triggered=False,
                seconds=time.perf_counter() - start,
            )

        # Pass 1: fold + re-assign every partition's dirty rows and measure
        # assignment drift, deferring all mutation so a drift-triggered
        # rebuild never leaves the index half-spliced.
        staged: list[tuple[tuple[int, str], np.ndarray, np.ndarray, int]] = []
        changed = 0
        existing_total = 0
        max_new = 0
        for key, partition in self._partitions.items():
            relation, side = key
            folded = fold_candidate_rows(self.model, relation, side, dirty)
            assignments = _nearest_cells(folded, partition.centroids, self.spill)
            old_count = int(len(partition.members)) // self.spill
            existing = dirty[dirty < old_count]
            max_new = max(max_new, int(len(dirty) - len(existing)))
            if len(existing):
                old_cells: dict[int, set[int]] = {}
                for cell_id in range(self.nlist):
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
            self.invalidate()
            return IndexUpdateReport(
                partitions_updated=0,
                entities_updated=int(len(dirty)),
                new_entities=max_new,
                drift=drift,
                rebuild_triggered=True,
                seconds=time.perf_counter() - start,
            )

        # Pass 2: splice.  Partitions are replaced, not written into —
        # loaded memmapped tables stay untouched on disk.
        for key, folded, assignments, old_count in staged:
            partition = self._partitions[key]
            flat = assignments.ravel()
            add_ids = np.repeat(dirty, assignments.shape[1]).astype(np.int32)
            order = np.argsort(flat, kind="stable")
            add_sorted = add_ids[order]
            add_offsets = np.concatenate(
                [[0], np.cumsum(np.bincount(flat, minlength=self.nlist))]
            ).astype(np.int64)
            cells = []
            for cell_id in range(self.nlist):
                kept = partition.cell(cell_id)
                kept = kept[~np.isin(kept, dirty)]
                adds = add_sorted[add_offsets[cell_id] : add_offsets[cell_id + 1]]
                cells.append(np.sort(np.concatenate([kept, adds])) if len(adds) else kept)
            members = (
                np.concatenate(cells) if cells else np.empty(0, dtype=np.int32)
            ).astype(np.int32, copy=False)
            offsets = np.concatenate(
                [[0], np.cumsum([len(cell) for cell in cells])]
            ).astype(np.int64)
            codes = None
            if partition.pq is not None:
                codes = np.empty(
                    (self.model.num_entities, partition.codes.shape[1]), dtype=np.uint8
                )
                codes[:old_count] = partition.codes[:old_count]
                codes[dirty] = partition.pq.encode(folded)
            self._partitions[key] = _Partition(
                partition.centroids,
                members,
                offsets,
                codes=codes,
                pq=partition.pq,
            )
        self._version = self.model.scoring_version
        return IndexUpdateReport(
            partitions_updated=len(staged),
            entities_updated=int(len(dirty)),
            new_entities=max_new,
            drift=drift,
            rebuild_triggered=False,
            seconds=time.perf_counter() - start,
        )

    # --------------------------------------------------------------- search
    def candidate_lists(
        self,
        anchors: np.ndarray,
        relations: np.ndarray,
        side: str,
        nprobe: int | None = None,
    ) -> CandidateBatch:
        """Probed candidate shortlists; see :class:`CandidateBatch`.

        Cells are ranked per query by ``anchor_flat · centroid`` — by
        linearity of the fold this is exactly the model score of the
        centroid — descending, ties toward the lower cell id.  The
        returned rows are the sorted union of the probed cells' members.

        Only the fold, the cell ranking and the PQ lookup tables run per
        relation group.  The union, the ADC scan and the ``refine``
        selection run across all rows and relations at once (in runs of
        at most ``_CANDIDATE_BUDGET`` candidates): every ``(row, id)``
        pair becomes one ``row·N + id`` key, so one sort orders and
        dedupes every row, and rows stay id-ascending.
        """
        self.ensure_fresh()
        anchors = np.atleast_1d(np.asarray(anchors, dtype=np.int64))
        relations = np.atleast_1d(np.asarray(relations, dtype=np.int64))
        if anchors.shape != relations.shape or anchors.ndim != 1:
            raise ServingError("anchors and relations must be 1-D arrays of equal length")
        nprobe = self._check_nprobe(self.nprobe if nprobe is None else nprobe)
        batch = len(anchors)
        num_entities = self.num_entities
        if nprobe >= self.nlist:
            return CandidateBatch(
                ids=None, lengths=None, covers_all=True, num_scored=batch * num_entities
            )
        # Work in "slots": the batch rows regrouped by relation (stable),
        # so every relation group is one contiguous slot range.
        order = np.argsort(relations, kind="stable")
        group_relations, group_sizes = np.unique(relations, return_counts=True)
        group_bounds = np.concatenate([[0], np.cumsum(group_sizes)])
        groups = []  # (partition, first slot, stop slot, lookup tables or None)
        cell_starts = np.empty((batch, nprobe), dtype=np.int64)
        cell_sizes = np.empty((batch, nprobe), dtype=np.int64)
        for relation, lo, hi in zip(group_relations, group_bounds[:-1], group_bounds[1:]):
            partition = self._partition(int(relation), side)
            queries = self._source.query_matrix(anchors[order[lo:hi]])
            cell_scores = queries @ partition.centroids.T
            probed = np.argsort(-cell_scores, axis=1, kind="stable")[:, :nprobe]
            cell_starts[lo:hi] = partition.offsets[probed]
            cell_sizes[lo:hi] = partition.offsets[probed + 1] - cell_starts[lo:hi]
            luts = partition.pq.lookup_tables(queries) if partition.pq is not None else None
            groups.append((partition, int(lo), int(hi), luts))

        # Candidate arrays grow with rows x probed members, so slots are
        # taken in runs of at most _CANDIDATE_BUDGET candidates: transient
        # memory stays bounded at any batch size or entity count.  Every
        # step is per row, so the runs change no result.
        slot_totals = cell_sizes.sum(axis=1)
        ids = np.empty(
            int(slot_totals.sum()) + num_entities * int((slot_totals == 0).sum()),
            dtype=np.int64,
        )
        lengths = np.empty(batch, dtype=np.int64)
        filled = 0
        for lo, hi in _runs(slot_totals, _CANDIDATE_BUDGET):
            run_ids, run_lengths = self._union(
                groups, cell_starts[lo:hi], cell_sizes[lo:hi], lo
            )
            ids[filled : filled + len(run_ids)] = run_ids
            lengths[lo:hi] = run_lengths
            filled += len(run_ids)
        ids = ids[:filled]
        starts = np.cumsum(lengths) - lengths
        pruned, kept, num_scanned = self._pq_prune(groups, ids, starts, lengths)

        # Positions in `ids` that each slot's padded row reads: its whole
        # union, or the ADC survivors of a pruned one.  Column c reads
        # entry min(c, length-1), so pads repeat the row's last id.
        width = int(lengths.max()) if batch else 0
        reads = starts[:, None] + np.minimum(np.arange(width), lengths[:, None] - 1)
        if len(pruned):
            reads[pruned] = kept  # width == refine: no row is longer
        # Back from slot order to the caller's row order.
        slot_of_row = np.empty(batch, dtype=np.int64)
        slot_of_row[order] = np.arange(batch)
        row_lengths = lengths[slot_of_row]
        return CandidateBatch(
            ids=ids[reads[slot_of_row]],
            lengths=row_lengths,
            covers_all=False,
            num_scored=int(row_lengths.sum()),
            num_scanned=num_scanned,
        )

    def _union(self, groups, cell_starts, cell_sizes, first_slot):
        """Sorted, deduplicated probed members of a run of slots.

        Every probed CSR range is gathered at once: the member positions
        of all ranges, overwritten by the members themselves with one
        take per partition over its slots' contiguous share.  Each
        ``(slot, id)`` pair is then one ``slot·N + id`` key, so one sort
        orders every slot's ids and a neighbour mask drops repeats.
        Returns ``(ids, lengths)``: the slots' ascending ids, concatenated.
        """
        num_entities = self.num_entities
        count = len(cell_sizes)
        totals = cell_sizes.sum(axis=1)
        edges = np.concatenate([[0], np.cumsum(totals)])
        sizes = cell_sizes.ravel()
        keys = np.arange(edges[-1]) + np.repeat(
            cell_starts.ravel() - (np.cumsum(sizes) - sizes), sizes
        )
        for partition, lo, hi, _ in groups:
            lo, hi = max(lo - first_slot, 0), min(hi - first_slot, count)
            if lo < hi:
                share = slice(edges[lo], edges[hi])
                keys[share] = partition.members[keys[share]]
        base = np.arange(count, dtype=np.int64) * num_entities
        keys += np.repeat(base, totals)
        empty = np.flatnonzero(totals == 0)
        if len(empty):
            # Degenerate partition (all probed cells empty): fall back to
            # the full candidate range for that row.
            full = base[empty, None] + np.arange(num_entities)
            keys = np.concatenate([keys, full.ravel()])
        keys.sort()
        distinct = np.empty(len(keys), dtype=bool)
        distinct[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        keys = keys[distinct]
        lengths = np.diff(np.searchsorted(keys, np.append(base, count * num_entities)))
        return keys - np.repeat(base, lengths), lengths

    def _pq_prune(self, groups, ids, starts, lengths):
        """ADC coarse pass: every slot whose union is longer than
        ``pq.refine`` keeps its ``refine`` best by approximate score,
        descending, ties to the lower id.

        Returns ``(pruned, kept, num_scanned)``: the pruned slots, their
        survivors' ascending positions in *ids* (one ``(refine,)`` line
        per slot, ``None`` when no slot was pruned), and the candidates
        scanned.  *lengths* is updated in place.  One ``index.pq_prune``
        span covers the whole call.
        """
        pq_groups = [group for group in groups if group[3] is not None]
        if not pq_groups:
            return np.empty(0, dtype=np.int64), None, 0
        refine = self.pq.refine
        prunable = np.zeros(len(lengths), dtype=bool)
        for _, lo, hi, _ in pq_groups:
            prunable[lo:hi] = True
        pruned = np.flatnonzero(prunable & (lengths > refine))
        if not len(pruned):
            return pruned, None, 0
        kept = np.empty((len(pruned), refine), dtype=np.int64)
        spans = lengths[pruned]
        num_scanned = int(spans.sum())
        # One table stack for the batch, so one ADC call can score
        # candidates of several relations; ks may differ per partition.
        luts = np.zeros(
            (len(lengths), pq_groups[0][3].shape[1], max(g[3].shape[2] for g in pq_groups))
        )
        for _, lo, hi, group_luts in pq_groups:
            luts[lo:hi, :, : group_luts.shape[2]] = group_luts
        with trace_scope("index.pq_prune", rows=len(pruned), candidates=num_scanned):
            for lo, hi in _runs(spans, _CANDIDATE_BUDGET):
                kept[lo:hi] = _adc_select(
                    pq_groups, luts, ids, starts[pruned[lo:hi]], pruned[lo:hi],
                    spans[lo:hi], refine,
                )
        lengths[pruned] = refine
        # Each ADC row scanned its whole union and kept `refine` ids.
        self.metrics.inc("index.pq.rows_pruned", len(pruned))
        self.metrics.inc("index.pq.candidates_pruned", num_scanned - len(pruned) * refine)
        return pruned, kept, num_scanned

    # ----------------------------------------------------------- persistence
    def _meta(self) -> dict:
        return {
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "seed": self.seed,
            "iters": self.iters,
            "spill": self.spill,
            "pq": self.pq.to_dict() if self.pq is not None else None,
            "train_sample": self.train_sample,
            "fold_cache": self._source.max_cached,
            "feature_dim": self._source.feature_dim,
            "partitions": [[relation, side] for relation, side in self.built_partitions],
        }

    def resident_arrays(self) -> list[np.ndarray]:
        """Every array this index currently references.

        Partition tables plus the folded matrices resident in the fold
        LRU — the working set a serving process actually holds.  Used by
        the memory benchmarks with
        :func:`~repro.core.memstore.array_memory` to split private bytes
        from shared file-backed mappings.
        """
        out: list[np.ndarray] = list(self._arrays().values())
        out.extend(self._source.cached_matrices())
        return out

    def _arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for (relation, side), partition in self._partitions.items():
            prefix = f"{side}_{relation}"
            arrays[f"{prefix}_centroids"] = partition.centroids
            arrays[f"{prefix}_members"] = partition.members
            arrays[f"{prefix}_offsets"] = partition.offsets
            if partition.pq is not None:
                arrays[f"{prefix}_codes"] = partition.codes
                arrays[f"{prefix}_codebooks"] = partition.pq.codebooks
        return arrays

    @classmethod
    def load(
        cls,
        directory,
        model: MultiEmbeddingModel,
        on_stale: str = "rebuild",
    ) -> "IVFIndex":
        """Restore a saved IVF index against *model*.

        The persisted fingerprint must match the model's parameters;
        when it does not, ``on_stale="rebuild"`` returns an index with
        the saved hyperparameters but no partitions (they rebuild
        lazily), and ``"error"`` raises.  Partition tables come back as
        read-only mappings — file-backed and shared across every
        process serving the run.
        """
        meta = read_index_meta(directory)
        if meta.get("kind") != cls.kind:
            raise ServingError(f"not an IVF index directory: {directory}")
        pq_meta = meta.get("pq")
        index = cls(
            model,
            nlist=meta["nlist"],
            nprobe=meta["nprobe"],
            seed=meta["seed"],
            iters=meta["iters"],
            spill=meta["spill"],
            pq=PQConfig.from_dict(pq_meta) if pq_meta is not None else None,
            train_sample=meta.get("train_sample"),
            fold_cache=meta.get("fold_cache", 2),
            on_stale=on_stale,
        )
        if not check_loaded_meta(meta, model, on_stale):
            return index
        partitions = [tuple(entry) for entry in meta.get("partitions", [])]
        if partitions:
            arrays = read_index_arrays(directory, meta)
            try:
                for relation, side in partitions:
                    prefix = f"{side}_{relation}"
                    pq = None
                    codes = arrays.get(f"{prefix}_codes")
                    if codes is not None:
                        pq = ProductQuantizer(arrays[f"{prefix}_codebooks"])
                    index._partitions[(int(relation), side)] = _Partition(
                        arrays[f"{prefix}_centroids"],
                        arrays[f"{prefix}_members"],
                        arrays[f"{prefix}_offsets"],
                        codes=codes,
                        pq=pq,
                    )
            except KeyError as error:
                raise CorruptArtifactError(
                    f"index arrays are missing partition data ({error}): {directory}",
                    path=directory,
                ) from None
        return index

    def __repr__(self) -> str:
        pq = f", pq=m{self.pq.m}/r{self.pq.refine}" if self.pq is not None else ""
        return (
            f"IVFIndex(nlist={self.nlist}, nprobe={self.nprobe}, spill={self.spill}"
            f"{pq}, partitions={len(self._partitions)}, entities={self.num_entities})"
        )
