"""Batched top-k link prediction over a trained model.

:class:`LinkPredictor` is the serving entry point: given a trained
:class:`~repro.core.base.KGEModel` it answers *"which tails complete
(h, ?, r)?"*, *"which heads complete (?, t, r)?"* and *"which relations
connect (h, t)?"* for whole batches of queries at once, with

* an opt-in LRU cache of 1-vs-all score vectors keyed on
  ``(entity, relation, side)`` (``cache_size > 0``), invalidated
  automatically when the model's parameters change,
* optional filtered-candidate masking that pushes already-known true
  triples out of the top-k (the serving twin of the evaluation
  protocol's filtered setting),
* optional explicit candidate sets served through the models'
  ``score_candidates`` fast paths, and
* optional **approximate retrieval** through a
  :class:`~repro.index.base.CandidateIndex`: the index proposes a
  per-query shortlist (O(num_probed) instead of O(num_entities)) and
  the predictor re-ranks it with true model scores, tracking probed
  fraction and (sampled) recall (:meth:`LinkPredictor.index_stats_dict`).

The cache is off by default.  On graph-drawn traffic (perfbench's
exact-serving mix, 24,000 entities) a 4,096-entry cache hit 4-5 % of
lookups while holding 786 MB of the daemon's 1.1 GB, and the daemon
served more requests per second without it.

Cache and index-usage counters are written once per call into
:attr:`LinkPredictor.metrics`; :meth:`LinkPredictor.metrics_snapshot`
merges them with the index's own registry and derives the ratios.

Ties are broken deterministically in favour of the lower entity id
(stable sort on descending score), so repeated and batched calls always
agree with a brute-force per-triple ranking.  The index path keeps the
same tie rule (shortlists arrive id-ascending); a shortlist shorter than
``k`` pads its result rows with id ``-1`` / score ``-inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import KGEModel
from repro.core.topk import top_k_columns
from repro.errors import ServingError
from repro.kg.graph import FilterIndex, KGDataset
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.obs.trace import trace_scope
from repro.serving.cache import LRUScoreCache
from repro.serving.scorer import BatchedScorer

#: The two id slots a query of each side gives, as ``(anchors, others)``.
QUERY_SLOTS = {
    "tail": ("head", "relation"),
    "head": ("tail", "relation"),
    "relation": ("head", "tail"),
}

#: Bucket bounds of the ``index.recall`` histogram (sampled recall@k).
RECALL_BUCKETS = (0.5, 0.8, 0.9, 0.95, 0.99, 1.0)


def query_slots(side: str) -> tuple[str, str]:
    """The ``(anchor, other)`` slot names of a *side*'s query.

    Raises :class:`~repro.errors.ServingError` for an unknown side; the
    predictor's :meth:`LinkPredictor.check_query` and the daemon's wire
    handler both refuse through here, with one message.
    """
    if side not in QUERY_SLOTS:
        raise ServingError(
            f"unknown side {side!r}; expected 'tail', 'head' or 'relation'"
        )
    return QUERY_SLOTS[side]


@dataclass(frozen=True)
class TopKResult:
    """Top-k candidate ids and scores for a batch of queries.

    ``ids`` and ``scores`` both have shape ``(b, k)``; row ``i`` is
    sorted by descending score (ties by ascending id).  Candidates masked
    by filtering carry ``-inf`` scores and sort last.
    """

    ids: np.ndarray
    scores: np.ndarray

    @property
    def k(self) -> int:
        """Number of candidates returned per query."""
        return self.ids.shape[1]

    def labeled(self, names) -> list[list[tuple[str, float]]]:
        """Resolve ids through a vocabulary-like ``names(ids)`` callable
        or :class:`~repro.kg.vocab.Vocabulary`; one list per query.

        Pad ids (``-1``, produced by index-served shortlists shorter
        than ``k``) carry no candidate to name and are dropped from
        every row, so a padded row simply comes back shorter — they are
        never resolved through the vocabulary (where ``-1`` would
        silently name the *last* entity).
        """
        resolve = names.names if hasattr(names, "names") else names
        labeled_rows = []
        for row_ids, row_scores in zip(self.ids, self.scores):
            keep = row_ids >= 0
            labeled_rows.append(
                list(
                    zip(
                        resolve([int(i) for i in row_ids[keep]]),
                        [float(s) for s in row_scores[keep]],
                    )
                )
            )
        return labeled_rows


class LinkPredictor:
    """Batched top-k tail/head/relation prediction.

    Parameters
    ----------
    model:
        Any trained :class:`KGEModel`.
    dataset:
        Optional dataset; supplies the filter index for ``filtered=True``
        queries and the vocabularies for name-based prediction.
    cache_size:
        Capacity of the LRU score cache; ``0`` (the default) serves
        every query with a fresh sweep.
    index:
        Optional :class:`~repro.index.base.CandidateIndex` built over
        this same model.  Full-sweep entity queries (no explicit
        candidates) are then answered from the index's shortlists with
        exact re-ranking; a shortlist that covers every entity (e.g.
        ``nprobe == nlist``) takes the ordinary full-sweep path and is
        bit-identical to serving without an index.
    recall_sample_every:
        When an index is active and this is ``> 0``, every Nth
        approximate query is additionally answered exactly and its
        recall@k recorded in the ``index.recall`` histogram (``0`` — the
        default — disables sampling; each sampled query pays one full
        sweep).
    """

    def __init__(
        self,
        model: KGEModel,
        dataset: KGDataset | None = None,
        *,
        cache_size: int = 0,
        index=None,
        recall_sample_every: int = 0,
    ) -> None:
        if cache_size < 0:
            raise ServingError("cache_size must be >= 0")
        if recall_sample_every < 0:
            raise ServingError("recall_sample_every must be >= 0")
        self.model = model
        self.dataset = dataset
        self.scorer = BatchedScorer(model)
        self.cache = LRUScoreCache(cache_size) if cache_size else None
        self._model_version = model.scoring_version
        self.index = index
        self.recall_sample_every = int(recall_sample_every)
        if index is not None and index.model is not model:
            raise ServingError(
                "index was built over a different model instance; build the "
                "index from the same model the predictor serves"
            )
        # Counters written per call, declared so a scrape lists them
        # before the first query.
        self.metrics = MetricsRegistry()
        if self.cache is not None:
            for name in ("hits", "misses", "evictions"):
                self.metrics.inc("serving.cache." + name, 0)
        if index is not None:
            for name in ("queries", "entities_scored", "entities_scanned", "exhaustive_queries"):
                self.metrics.inc("index." + name, 0)

    # ------------------------------------------------------------- plumbing
    @property
    def filter_index(self) -> FilterIndex:
        if self.dataset is None:
            raise ServingError(
                "filtered prediction needs a dataset, whose filter_index masks "
                "the known triples"
            )
        return self.dataset.filter_index

    def metrics_snapshot(self) -> MetricsSnapshot:
        """One read of this deployment's counters: the predictor's registry
        merged with its index's, plus the ratios derived from them (cache
        size and hit rate; probed fraction over the current entity count
        and the sampled recall estimate)."""
        snapshot = self.metrics.snapshot()
        if self.index is not None:
            snapshot = snapshot.merged(self.index.metrics.snapshot())
        counters = snapshot.counters
        derived = {}
        if self.cache is not None:
            hits = counters["serving.cache.hits"]
            lookups = hits + counters["serving.cache.misses"]
            derived["serving.cache.size"] = float(len(self.cache))
            derived["serving.cache.capacity"] = float(self.cache.capacity)
            derived["serving.cache.hit_rate"] = hits / lookups if lookups else 0.0
        if self.index is not None:
            swept = counters["index.queries"] * self.model.num_entities
            derived["index.probed_fraction"] = (
                counters["index.entities_scored"] / swept if swept else 0.0
            )
            recall = snapshot.histograms.get("index.recall")
            if recall is not None:
                derived["index.recall_estimate"] = recall.mean
        return snapshot.merged(MetricsSnapshot(gauges=derived))

    def index_stats_dict(self, snapshot: MetricsSnapshot | None = None) -> dict | None:
        """JSON-compatible index usage summary, ``None`` without an index.

        Rendered from *snapshot* (default: a fresh :meth:`metrics_snapshot`),
        so a caller rendering several views reads each counter once.  The
        nested ``fold_cache`` dict — the observable that turns "serving is
        slow" into "the fold cache is thrashing" — appears for indexes
        with a folded-matrix cache.
        """
        if self.index is None:
            return None
        if snapshot is None:
            snapshot = self.metrics_snapshot()
        counters, gauges = snapshot.counters, snapshot.gauges
        recall = snapshot.histograms.get("index.recall")
        out = {
            "num_entities": self.model.num_entities,
            "queries": counters["index.queries"],
            "entities_scored": counters["index.entities_scored"],
            "entities_scanned": counters["index.entities_scanned"],
            "exhaustive_queries": counters["index.exhaustive_queries"],
            "recall_checks": recall.count if recall is not None else 0,
            "probed_fraction": gauges["index.probed_fraction"],
            "recall_estimate": gauges.get("index.recall_estimate"),
            "fold_cache_hits": counters["index.fold_cache.hits"],
            "fold_cache_misses": counters["index.fold_cache.misses"],
        }
        # Only an index with a folded-matrix cache counts its evictions.
        if "index.fold_cache.evictions" in counters:
            out["fold_cache"] = {
                name: counters[f"index.fold_cache.{name}"]
                for name in ("hits", "misses", "evictions")
            }
        return out

    def clear_cache(self) -> None:
        """Drop cached scores and index partitions.

        Training invalidates all of them automatically via
        ``scoring_version``; this is the recovery path for in-place
        parameter edits that bypass ``train_step`` and therefore never
        bump the version.
        """
        if self.cache is not None:
            self.cache.clear()
        if self.index is not None:
            self.index.invalidate()
        self._model_version = self.model.scoring_version

    @property
    def model_version(self) -> int:
        """The model ``scoring_version`` this predictor last synced to.

        Every query path syncs before answering, so after any
        ``top_k``/``predict`` call this equals the version the answer
        was computed at — the serving daemon tags responses with it.
        """
        return self._model_version

    def _sync_version(self) -> None:
        """Reconcile with the model's current ``scoring_version``.

        Runs at the top of every query path — including with caching
        disabled, so ``model_version`` bookkeeping never drifts after
        training (``cache_size=0`` used to skip it entirely).
        """
        version = self.model.scoring_version
        if version != self._model_version:
            if self.cache is not None:
                self.cache.clear()
            self._model_version = version

    def _full_scores(self, anchors: np.ndarray, relations: np.ndarray, side: str) -> np.ndarray:
        """(b, num_entities) sweep, served from the cache where possible.

        Cached vectors are always the *raw* scores; filtering masks a
        copy, so the same cache serves filtered and unfiltered queries.
        Callers have already synced the model version (every public
        query path starts with ``_sync_version``).
        """
        if self.cache is None:
            return self.scorer.all_scores(anchors, relations, side)
        out = np.empty((len(anchors), self.model.num_entities), dtype=np.float64)
        missing: dict[tuple[int, int, str], list[int]] = {}
        hits = 0
        for row in range(len(anchors)):
            key = (int(anchors[row]), int(relations[row]), side)
            hit = self.cache.get(key)
            if hit is not None:
                out[row] = hit
                hits += 1
            else:
                missing.setdefault(key, []).append(row)
        evictions = 0
        if missing:
            keys = list(missing)
            scores = self.scorer.all_scores(
                np.array([key[0] for key in keys], dtype=np.int64),
                np.array([key[1] for key in keys], dtype=np.int64),
                side,
            )
            # Every key missed, so each put inserts: whatever the cache
            # did not grow by, it evicted.
            evictions = len(self.cache) + len(keys)
            for key, vector in zip(keys, scores):
                self.cache.put(key, vector)
                out[missing[key]] = vector
            evictions -= len(self.cache)
        self.metrics.inc("serving.cache.hits", hits)
        self.metrics.inc("serving.cache.misses", len(anchors) - hits)
        self.metrics.inc("serving.cache.evictions", evictions)
        return out

    def _mask_known(
        self,
        scores: np.ndarray,
        anchors: np.ndarray,
        relations: np.ndarray,
        side: str,
        candidates: np.ndarray | None = None,
    ) -> None:
        """Set known-true entries of *scores* to ``-inf`` in place.

        Columns are entity ids for full sweeps, or positions into the
        per-row *candidates* array when one is given.
        """
        lookup = (
            self.filter_index.true_tails if side == "tail" else self.filter_index.true_heads
        )
        for row in range(len(scores)):
            known = lookup(int(anchors[row]), int(relations[row]))
            if not len(known):
                continue
            if candidates is None:
                scores[row, known] = -np.inf
            else:
                scores[row, np.isin(candidates[row], known)] = -np.inf

    @staticmethod
    def _select_top_k(scores: np.ndarray, k: int) -> TopKResult:
        """Top-k columns per row: descending score, ties by ascending
        candidate position — the documented tie policy.

        :func:`~repro.core.topk.top_k_columns` picks the set in O(N)
        per row, so only a k-wide sort remains — a full ``argsort`` over
        ``(b, N)`` dominated batched latency.
        """
        # Ascending-position order first, then a stable descending-score
        # sort: ties therefore resolve toward the lower position.
        kept = top_k_columns(scores, k)
        kept_scores = np.take_along_axis(scores, kept, axis=1)
        order = np.argsort(-kept_scores, axis=1, kind="stable")
        return TopKResult(
            ids=np.take_along_axis(kept, order, axis=1),
            scores=np.take_along_axis(kept_scores, order, axis=1),
        )

    def _full_top_k(
        self, anchors: np.ndarray, relations: np.ndarray, side: str, filtered: bool, k: int
    ) -> TopKResult:
        """Exact top-k over every entity (the index-free reference path)."""
        # _full_scores always returns a fresh matrix (cached rows are
        # copied into it), so masking in place is safe — no extra copy.
        scores = self._full_scores(anchors, relations, side)
        if filtered:
            self._mask_known(scores, anchors, relations, side)
        return self._select_top_k(scores, min(k, self.model.num_entities))

    def _top_k_via_index(
        self, anchors: np.ndarray, relations: np.ndarray, k: int, side: str, filtered: bool
    ) -> TopKResult:
        """Index-served top-k: probe, exact re-rank, keep the tie rule.

        Shortlists arrive id-ascending, so the stable descending-score
        sort breaks ties toward the lower id exactly like the full
        sweep.  Batches flagged ``covers_all`` (``nprobe == nlist``,
        :class:`~repro.index.exact.ExactIndex`) are delegated to the
        full-sweep path and therefore bit-identical to it.
        """
        metrics = self.metrics
        with trace_scope("index.probe", queries=len(anchors), side=side):
            batch = self.index.candidate_lists(anchors, relations, side)
        first_query = metrics.counter_value("index.queries")
        metrics.inc("index.queries", len(anchors))
        metrics.inc("index.entities_scored", batch.num_scored)
        metrics.inc("index.entities_scanned", batch.num_scanned)
        if batch.covers_all:
            metrics.inc("index.exhaustive_queries", len(anchors))
            return self._full_top_k(anchors, relations, side, filtered, k)
        num_entities = self.model.num_entities
        k_out = min(k, num_entities)
        out_ids = np.full((len(anchors), k_out), -1, dtype=np.int64)
        out_scores = np.full((len(anchors), k_out), -np.inf, dtype=np.float64)
        chunk = self.scorer.effective_chunk_size()
        with trace_scope(
            "index.rerank", queries=len(anchors), candidates=int(batch.num_scored)
        ):
            for start in range(0, len(anchors), chunk):
                stop = min(start + chunk, len(anchors))
                lengths = batch.lengths[start:stop]
                width = int(lengths.max()) if len(lengths) else 0
                if width == 0:
                    # Every shortlist in this chunk is empty (degenerate
                    # partitions): the output rows stay all-pad (-1/-inf).
                    continue
                # Cut to this chunk's longest row, so scoring sees the
                # same shapes whatever the rest of the batch holds.  Pad
                # columns hold valid ids (the row's last, or 0) and are
                # masked to -inf below.
                cands = np.ascontiguousarray(batch.ids[start:stop, :width])
                scores = np.asarray(
                    self.scorer.score_candidates(
                        anchors[start:stop], relations[start:stop], cands, side
                    ),
                    dtype=np.float64,
                )
                pad_mask = np.arange(width)[None, :] >= lengths[:, None]
                scores[pad_mask] = -np.inf
                if filtered:
                    self._mask_known(
                        scores, anchors[start:stop], relations[start:stop], side, cands
                    )
                picked = self._select_top_k(scores, min(k_out, width))
                ids = np.take_along_axis(cands, picked.ids, axis=1)
                ids[np.take_along_axis(pad_mask, picked.ids, axis=1)] = -1
                out_ids[start:stop, : ids.shape[1]] = ids
                out_scores[start:stop, : ids.shape[1]] = picked.scores
        result = TopKResult(ids=out_ids, scores=out_scores)
        if self.recall_sample_every:
            self._sample_recall(
                anchors, relations, side, filtered, k_out, result, first_query
            )
        return result

    def _sample_recall(
        self, anchors, relations, side, filtered, k_out, result, first_query
    ) -> None:
        """Exact-check every Nth approximate query and record its recall@k."""
        for row in range(len(anchors)):
            if (first_query + row) % self.recall_sample_every:
                continue
            exact = self._full_top_k(
                anchors[row : row + 1], relations[row : row + 1], side, filtered, k_out
            )
            approx_ids = result.ids[row]
            overlap = np.intersect1d(approx_ids[approx_ids >= 0], exact.ids[0]).size
            self.metrics.observe(
                "index.recall", overlap / exact.ids.shape[1], bounds=RECALL_BUCKETS
            )

    def _top_k_one_side(
        self,
        anchors,
        relations,
        k: int,
        side: str,
        filtered: bool,
        candidates,
        exact: bool = False,
    ) -> TopKResult:
        self._sync_version()
        anchors = np.atleast_1d(np.asarray(anchors, dtype=np.int64))
        relations = np.atleast_1d(np.asarray(relations, dtype=np.int64))
        if anchors.shape != relations.shape or anchors.ndim != 1:
            raise ServingError("anchors and relations must be 1-D arrays of equal length")
        if candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
            scores = np.asarray(
                self.scorer.score_candidates(anchors, relations, candidates, side),
                dtype=np.float64,
            )
            if candidates.ndim == 1:
                candidates = np.broadcast_to(candidates, scores.shape)
            if filtered:
                self._mask_known(scores, anchors, relations, side, candidates)
            # Reorder each row by candidate id first so the stable sort in
            # _select_top_k breaks ties toward the lower id, matching the
            # full-sweep path regardless of the caller's candidate order.
            by_id = np.argsort(candidates, axis=1, kind="stable")
            candidates = np.take_along_axis(candidates, by_id, axis=1)
            scores = np.take_along_axis(scores, by_id, axis=1)
            picked = self._select_top_k(scores, min(k, scores.shape[1]))
            return TopKResult(
                ids=np.take_along_axis(candidates, picked.ids, axis=1),
                scores=picked.scores,
            )
        if self.index is not None and not exact:
            return self._top_k_via_index(anchors, relations, k, side, filtered)
        return self._full_top_k(anchors, relations, side, filtered, k)

    def _relation_top_k(self, heads, tails, k: int) -> TopKResult:
        self._sync_version()
        heads = np.atleast_1d(np.asarray(heads, dtype=np.int64))
        tails = np.atleast_1d(np.asarray(tails, dtype=np.int64))
        if heads.shape != tails.shape or heads.ndim != 1:
            raise ServingError("heads and tails must be 1-D arrays of equal length")
        num_relations = self.model.num_relations
        all_relations = np.arange(num_relations, dtype=np.int64)
        rows_per_chunk = max(1, self.scorer.max_chunk_elements // num_relations)
        scores = np.empty((len(heads), num_relations), dtype=np.float64)
        for start in range(0, len(heads), rows_per_chunk):
            stop = min(start + rows_per_chunk, len(heads))
            block = stop - start
            scores[start:stop] = self.scorer.score_triples(
                np.repeat(heads[start:stop], num_relations),
                np.repeat(tails[start:stop], num_relations),
                np.tile(all_relations, block),
            ).reshape(block, num_relations)
        return self._select_top_k(scores, min(k, num_relations))

    # --------------------------------------------------------------- queries
    def top_k(
        self,
        anchors,
        others,
        *,
        side: str = "tail",
        k: int = 10,
        filtered: bool = False,
        candidates=None,
        exact: bool = False,
    ) -> TopKResult:
        """Unified top-k query: one entry point, the missing slot as *side*.

        * ``side="tail"`` — *anchors* are heads, *others* relations;
          best tail completions of ``(h, ?, r)``.
        * ``side="head"`` — *anchors* are tails, *others* relations;
          best head completions of ``(?, t, r)``.
        * ``side="relation"`` — *anchors* are heads, *others* tails;
          best relation completions of ``(h, ?, t)``.

        Shared knobs: ``filtered=True`` pushes known true entities to
        the bottom (score ``-inf``); ``candidates`` restricts entity
        queries to an explicit ``(c,)`` or ``(b, c)`` id set via the
        model's fast path; ``exact=True`` bypasses any attached index
        and answers with the full-sweep reference path — the serving
        daemon's degraded-mode escape hatch when an index turns out
        stale or corrupt (relation queries are always exact, so the flag
        is a no-op there).  Relation queries reject ``filtered`` and
        ``candidates``: the filter index and the candidate fast paths
        are entity-keyed.
        """
        self.check_query(
            anchors, others, side=side, k=k, filtered=filtered, candidates=candidates
        )
        if side == "relation":
            return self._relation_top_k(anchors, others, k)
        return self._top_k_one_side(
            anchors, others, k, side, filtered, candidates, exact=exact
        )

    def check_query(
        self,
        anchors,
        others,
        *,
        side: str = "tail",
        k: int = 10,
        filtered: bool = False,
        candidates=None,
    ) -> None:
        """Refuse a :meth:`top_k` query this predictor cannot answer as asked.

        Raises :class:`~repro.errors.ServingError` for an unknown *side*,
        ``k < 1``, ``filtered`` or ``candidates`` on a relation query, or
        an anchor, other or candidate id outside the served model's
        tables (naming the first bad one).  Unchecked, numpy indexing
        would answer a negative id as an entity counted from the end of
        the table, and fail one past the end with a bare ``IndexError``.
        The serving daemon runs this same check at admission, before a
        request can join a micro-batch, so the library and the daemon
        refuse the same queries alike.
        """
        slots = query_slots(side)
        if k < 1:
            raise ServingError("k must be >= 1")
        if side == "relation":
            if filtered:
                raise ServingError(
                    "filtered=True is not supported for side='relation'; the "
                    "filter index is entity-keyed"
                )
            if candidates is not None:
                raise ServingError(
                    "candidates are not supported for side='relation'"
                )
        checked = list(zip(slots, (anchors, others)))
        if candidates is not None:
            checked.append(("candidate", candidates))
        for slot, ids in checked:
            bound = (
                self.model.num_relations if slot == "relation" else self.model.num_entities
            )
            ids = np.asarray(ids)
            bad = ids[(ids < 0) | (ids >= bound)]
            if bad.size:
                raise ServingError(f"{slot} id {bad.flat[0]} out of range [0, {bound})")

    def warm_cache(self, anchors, relations, side: str = "tail") -> None:
        """Precompute and cache the sweeps for the given queries.

        The queries pass the same :meth:`check_query` as :meth:`top_k`, so
        an out-of-range id is refused instead of caching another entity's
        sweep under its key.
        """
        if self.cache is None:
            raise ServingError("warm_cache needs caching enabled (cache_size > 0)")
        self.check_query(anchors, relations, side=side)
        self._sync_version()
        anchors = np.atleast_1d(np.asarray(anchors, dtype=np.int64))
        relations = np.atleast_1d(np.asarray(relations, dtype=np.int64))
        self._full_scores(anchors, relations, side)

    # ---------------------------------------------------------- name queries
    def _vocabs(self):
        if self.dataset is None:
            raise ServingError("name-based prediction needs a dataset with vocabularies")
        return self.dataset.entities, self.dataset.relations

    def predict(
        self,
        head: str | None = None,
        relation: str | None = None,
        tail: str | None = None,
        k: int = 10,
        filtered: bool = True,
    ) -> list[tuple[str, float]]:
        """Name-level prediction for exactly one missing triple slot.

        Give two of ``head``/``relation``/``tail``; the missing one is
        predicted and returned as ``[(name, score), ...]`` best-first.
        ``filtered`` applies to entity prediction only — relation
        queries are always raw (the filter index is entity-keyed).
        """
        entities, relations_vocab = self._vocabs()
        given = [slot is not None for slot in (head, relation, tail)]
        if sum(given) != 2:
            raise ServingError(
                "predict needs exactly two of head/relation/tail, got "
                f"{sum(given)}"
            )
        if relation is None:
            result = self.top_k(
                [entities.index(head)], [entities.index(tail)], side="relation", k=k
            )
            return result.labeled(relations_vocab)[0]
        rel_id = relations_vocab.index(relation)
        if tail is None:
            result = self.top_k(
                [entities.index(head)], [rel_id], side="tail", k=k, filtered=filtered
            )
        else:
            result = self.top_k(
                [entities.index(tail)], [rel_id], side="head", k=k, filtered=filtered
            )
        # labeled() drops index-shortlist pad ids (-1) from every row.
        return result.labeled(entities)[0]
