"""Link prediction evaluator tying models, datasets and metrics together.

Implements the protocol of §5.2: for every eval triple, corrupt the tail
against all entities and the head against all entities, filter known true
triples (the *filtered* setting), rank the true entity, and aggregate
MRR / Hits@k over both sides.

The 1-vs-all sweeps stream through the serving layer's
:class:`~repro.serving.scorer.BatchedScorer` in memory-bounded chunks of
``batch_size`` eval triples, so evaluation shares one scoring path with
the :class:`~repro.serving.predictor.LinkPredictor` and never
materialises more than one ``(batch_size, num_entities)`` score matrix
per process.  Ranking compares candidates *within* a row, where chunk
boundaries cannot reorder scores or break exact ties, so metrics are
bit-identical for any ``batch_size`` (the chunking regression test pins
this down for sizes 1, 7 and full-batch).

``workers`` spreads the same sweeps over
:func:`~repro.parallel.pool.run_tasks`: each side's eval triples are cut
into ``workers`` contiguous blocks at multiples of ``batch_size``, and
every ``(side, block)`` pair becomes one task, scored in a worker
process that rebuilds the model from a
:class:`~repro.parallel.payload.ModelPayload`.  A task issues exactly
the chunk sweeps the serial path would, so merged metrics are
bit-identical by construction for any worker count.  Workers buy
wall-clock on multi-core hosts; they do not shrink the score matrix,
which ``batch_size`` bounds either way.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from repro.core.base import KGEModel
from repro.errors import EvaluationError
from repro.eval.metrics import DEFAULT_HITS_AT, RankingMetrics, compute_metrics, merge_metrics
from repro.eval.ranking import TIE_POLICIES, ranks_from_score_matrix
from repro.kg.graph import FilterIndex, KGDataset
from repro.kg.triples import TripleSet
from repro.obs import registry as obs_registry
from repro.obs.trace import trace_scope
from repro.parallel.payload import (
    ModelPayload,
    describe_shipping,
    model_from_payload,
    model_to_payload,
)
from repro.parallel.pool import in_worker_process, run_tasks
from repro.serving.scorer import BatchedScorer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvaluationResult:
    """Metrics for one evaluation run, overall and per side."""

    overall: RankingMetrics
    tail_side: RankingMetrics
    head_side: RankingMetrics
    split: str


class LinkPredictionEvaluator:
    """Filtered (or raw) ranking evaluation of a model on a dataset split.

    Parameters
    ----------
    dataset:
        Supplies the splits and the filter index over all known triples.
    batch_size:
        Number of eval triples scored per 1-vs-all sweep; bounds peak
        memory at one ``(batch_size, num_entities)`` float64 matrix per
        process.
    filtered:
        Use the filtered protocol (True, paper default) or raw ranking.
    hits_at:
        Cutoffs for Hits@k.
    tie_policy:
        Tie handling convention, see :mod:`repro.eval.ranking`.
    workers:
        Worker processes; each ranks one batch-aligned block of each
        side's eval triples, so the pool runs ``2 * workers`` tasks with
        the serial metrics.  ``0`` (default) ranks each side with one
        :func:`compute_side_ranks` call in process and never touches the
        pool.  Inside a pool worker (e.g. a parallel-sweep child) or a
        daemonic process the evaluator also runs serially: a grandchild
        pool would oversubscribe the machine, or be forbidden outright.
    retries, backoff, task_timeout, fault_plan:
        Forwarded to :func:`~repro.parallel.pool.run_tasks` on the
        pooled path.  Block results are deterministic in their inputs,
        so ``retries=1`` (default) heals a worker lost to OOM or a
        segfault without any risk of changing metrics; deterministic
        failures still fail fast.
    """

    def __init__(
        self,
        dataset: KGDataset,
        batch_size: int = 512,
        filtered: bool = True,
        hits_at: tuple[int, ...] = DEFAULT_HITS_AT,
        tie_policy: str = "average",
        workers: int = 0,
        retries: int = 1,
        backoff: float = 0.0,
        task_timeout: float | None = None,
        fault_plan=None,
    ) -> None:
        if batch_size < 1:
            raise EvaluationError("batch_size must be >= 1")
        if any(k < 1 for k in hits_at):
            raise EvaluationError("hits_at cutoffs must be >= 1")
        if tie_policy not in TIE_POLICIES:
            raise EvaluationError(
                f"unknown tie policy {tie_policy!r}; known: {TIE_POLICIES}"
            )
        if workers < 0:
            raise EvaluationError(f"workers must be >= 0, got {workers}")
        if retries < 0:
            raise EvaluationError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise EvaluationError(f"backoff must be >= 0, got {backoff}")
        if task_timeout is not None and task_timeout <= 0:
            raise EvaluationError(
                f"task_timeout must be > 0 or None, got {task_timeout}"
            )
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.filtered = bool(filtered)
        self.hits_at = tuple(hits_at)
        self.tie_policy = tie_policy
        self.workers = int(workers)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.task_timeout = task_timeout
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------ public
    def evaluate(
        self, model: KGEModel, split: str = "test", max_triples: int | None = None
    ) -> EvaluationResult:
        """Evaluate *model* on a named split of the dataset."""
        try:
            triples = self.dataset.splits[split]
        except KeyError:
            raise EvaluationError(f"unknown split {split!r}") from None
        return self.evaluate_triples(model, triples, split_name=split, max_triples=max_triples)

    def evaluate_triples(
        self,
        model: KGEModel,
        triples: TripleSet,
        split_name: str = "custom",
        max_triples: int | None = None,
    ) -> EvaluationResult:
        """Evaluate on an explicit :class:`TripleSet` (e.g. train subsample).

        ``max_triples`` caps the number of evaluated triples — used to
        report "on train" rows (paper Table 2) without sweeping the whole
        training set.
        """
        if len(triples) == 0:
            raise EvaluationError("cannot evaluate on an empty triple set")
        if max_triples is not None and max_triples < 1:
            raise EvaluationError(f"max_triples must be >= 1 or None, got {max_triples}")
        arr = triples.array[:max_triples]
        filter_index = self.dataset.filter_index if self.filtered else None
        workers = self.workers
        if in_worker_process() or multiprocessing.current_process().daemon:
            workers = 0
        if workers == 0:
            tail_ranks = compute_side_ranks(
                model, arr, filter_index, "tail", self.batch_size, self.tie_policy
            )
            head_ranks = compute_side_ranks(
                model, arr, filter_index, "head", self.batch_size, self.tie_policy
            )
        else:
            tail_ranks, head_ranks = self._pooled_side_ranks(
                model, arr, filter_index, workers
            )
        tail_metrics = compute_metrics(tail_ranks, self.hits_at)
        head_metrics = compute_metrics(head_ranks, self.hits_at)
        return EvaluationResult(
            overall=merge_metrics(tail_metrics, head_metrics),
            tail_side=tail_metrics,
            head_side=head_metrics,
            split=split_name,
        )

    # ----------------------------------------------------------------- helpers
    def _pooled_side_ranks(
        self,
        model: KGEModel,
        arr: np.ndarray,
        filter_index: FilterIndex | None,
        workers: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the block plan through the pool and concatenate each side."""
        slices = plan_shards(len(arr), workers, align=self.batch_size).slices()
        tasks = [(side, start, stop) for side in ("tail", "head") for start, stop in slices]
        payload = model_to_payload(model)
        # The sharing win is observable: store-backed models ship file
        # paths, not table bytes, so per-worker dispatch cost stays flat
        # as the model grows.
        logger.info(
            "dispatching %d eval shards to %d workers — %s",
            len(tasks),
            workers,
            describe_shipping(payload),
        )
        with trace_scope("eval.sharded", shards=len(tasks), workers=workers):
            outcomes = run_tasks(
                _run_shard_task,
                tasks,
                workers=workers,
                initializer=_init_eval_context,
                initargs=(payload, arr, filter_index, self.batch_size, self.tie_policy),
                retries=self.retries,
                backoff=self.backoff,
                task_timeout=self.task_timeout,
                fault_plan=self.fault_plan,
            )
        failed = [outcome for outcome in outcomes if not outcome.ok]
        if failed:
            raise EvaluationError(
                f"{len(failed)} of {len(outcomes)} evaluation shards failed; first "
                f"worker traceback:\n{failed[0].error}"
            )
        per_side = len(slices)
        values = [outcome.value for outcome in outcomes]
        return np.concatenate(values[:per_side]), np.concatenate(values[per_side:])


def compute_side_ranks(
    model: KGEModel,
    triples: np.ndarray,
    filter_index: FilterIndex | None,
    side: str,
    batch_size: int,
    tie_policy: str = "average",
) -> np.ndarray:
    """Ranks of the true entity for every triple on one side.

    Streams chunks of ``batch_size`` queries through a
    :class:`BatchedScorer`; each chunk's ``(chunk, num_entities)`` score
    matrix is ranked and discarded before the next is computed.  Both
    evaluation paths run it: once per side, or once per pool task on
    that task's block of triples.
    """
    if side == "tail":
        anchors, true_indices = triples[:, 0], triples[:, 1]
        lookup = filter_index.true_tails if filter_index is not None else None
    else:
        anchors, true_indices = triples[:, 1], triples[:, 0]
        lookup = filter_index.true_heads if filter_index is not None else None
    relations = triples[:, 2]
    obs_registry.inc("eval.triples_ranked", len(triples))
    scorer = BatchedScorer(model, chunk_size=batch_size)
    ranks: list[np.ndarray] = []
    for start, stop, scores in scorer.iter_all_scores(anchors, relations, side):
        filters = (
            [
                lookup(int(anchor), int(relation))
                for anchor, relation in zip(anchors[start:stop], relations[start:stop])
            ]
            if lookup is not None
            else None
        )
        ranks.append(
            ranks_from_score_matrix(scores, true_indices[start:stop], filters, tie_policy)
        )
    return np.concatenate(ranks)


# ------------------------------------------------------------------ sharding
@dataclass(frozen=True)
class ShardPlan:
    """A partition of ``bounds[-1]`` items into contiguous shards.

    ``bounds`` has ``num_shards + 1`` ascending entries starting at 0;
    shard ``i`` covers ``[bounds[i], bounds[i + 1])``.  Shards may be
    empty when there are fewer alignment units than shards.
    """

    bounds: tuple[int, ...]

    def slices(self) -> list[tuple[int, int]]:
        """Non-empty ``(start, stop)`` shard ranges, in order."""
        return [
            (start, stop)
            for start, stop in zip(self.bounds[:-1], self.bounds[1:])
            if stop > start
        ]


def plan_shards(total: int, num_shards: int, align: int = 1) -> ShardPlan:
    """Partition ``total`` items into ``num_shards`` aligned shards.

    Boundaries are multiples of *align* (except the final bound), spread
    as evenly as the alignment allows.  The evaluator aligns to its
    batch size, which is what gives every shard the chunk geometry of
    the unsharded sweep.
    """
    if num_shards < 1:
        raise EvaluationError(f"shards must be >= 1, got {num_shards}")
    if align < 1:
        raise EvaluationError(f"alignment must be >= 1, got {align}")
    if total < 0:
        raise EvaluationError(f"total must be >= 0, got {total}")
    units = -(-total // align)  # number of align-sized blocks, last may be ragged
    bounds = [min(align * ((units * i) // num_shards), total) for i in range(num_shards)]
    bounds.append(total)
    return ShardPlan(bounds=tuple(bounds))


@dataclass
class _EvalContext:
    """Everything a shard task needs, set up once per worker process."""

    model: KGEModel
    triples: np.ndarray
    filter_index: FilterIndex | None
    batch_size: int
    tie_policy: str


_EVAL_CTX: _EvalContext | None = None


def _init_eval_context(
    payload: ModelPayload,
    triples: np.ndarray,
    filter_index: FilterIndex | None,
    batch_size: int,
    tie_policy: str,
) -> None:
    """Pool initializer: rebuild the model once per worker process."""
    global _EVAL_CTX
    _EVAL_CTX = _EvalContext(
        model_from_payload(payload), triples, filter_index, batch_size, tie_policy
    )


def _run_shard_task(task: tuple[str, int, int]) -> np.ndarray:
    """Rank one ``(side, start, stop)`` block of the eval triples."""
    side, start, stop = task
    ctx = _EVAL_CTX
    if ctx is None:
        raise EvaluationError("evaluation context not initialised in this process")
    telemetry = obs_registry.active_registry() is not None
    started = time.perf_counter() if telemetry else 0.0
    try:
        return compute_side_ranks(
            ctx.model,
            ctx.triples[start:stop],
            ctx.filter_index,
            side,
            batch_size=ctx.batch_size,
            tie_policy=ctx.tie_policy,
        )
    finally:
        if telemetry:
            obs_registry.inc("eval.shard_tasks")
            obs_registry.observe("eval.shard_seconds", time.perf_counter() - started)
