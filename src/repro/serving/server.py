"""Micro-batched asyncio serving daemon over :class:`LinkPredictor`.

The library's serving layer already amortises the folded matmul across
*batched* calls — but production traffic arrives as many small
concurrent requests, not as pre-assembled batches.  This module closes
that gap with a stdlib-only asyncio service:

``PredictionServer``
    The core loop.  Concurrent :meth:`PredictionServer.top_k` awaits
    (one entry point, the missing slot as ``side``) are checked at
    admission and land in one bounded queue.  A work-conserving
    batcher task takes whatever is queued, up to ``max_batch``
    requests, the moment the previous batch is scored (requests that
    arrive while a batch scores form the next one; it never waits on a
    timer for stragglers), groups them by
    ``(side, filtered, k-bucket)`` and dispatches **one**
    :class:`~repro.serving.predictor.LinkPredictor` call per group —
    exactly the way :class:`~repro.serving.scorer.BatchedScorer` batches
    evaluation.  Each request's future resolves to a
    :class:`ServedTopK` carrying the answer plus the deployment
    generation and model ``scoring_version`` it was computed at.

    *Admission control*: when the queue is at ``queue_depth`` the
    request fast-fails with :class:`~repro.errors.ServerOverloadedError`
    and a ``retry_after_ms`` hint (the queue length times the p90 of the
    current deployment's per-request service times, each sample clamped
    so one pathological batch cannot poison it), instead of queueing
    unboundedly.

    *Deadlines*: each request may carry a ``deadline_ms`` budget (or
    inherit the server's ``default_deadline_ms``); a request still
    queued when its budget runs out fails with
    :class:`~repro.errors.DeadlineExceededError` instead of occupying a
    batch slot it can no longer use.

    *Degraded mode*: when the active deployment's candidate index turns
    out stale or corrupt **at serving time**, the affected micro-batch
    group is transparently re-answered by the exact full-sweep path
    (``exact=True``), the response is tagged ``degraded`` and the
    server's sticky degraded flag is raised until a successful swap —
    availability over latency, never over correctness.  The same
    applies at load time: :meth:`PredictionServer.load_run` falls back
    to serving without an index when the persisted one fails its
    integrity check.

    *Hot-swap*: :meth:`PredictionServer.load_run` builds a new
    predictor from a run directory **off the event loop**, refuses
    persisted indexes whose fingerprint no longer matches the
    checkpoint (``on_stale="error"``), waits for the in-flight
    micro-batch to finish, and flips the active deployment atomically —
    no response ever mixes old and new model versions, and the old
    deployment keeps serving until the instant of the flip.

    *Live ingestion*: :meth:`PredictionServer.apply_delta` hot-applies a
    :class:`~repro.ingest.GraphDelta` to the active deployment under the
    same swap lock dispatch scoring holds — dataset apply, embedding
    growth, warm-start fine-tuning and incremental index maintenance all
    land atomically between micro-batches, and every subsequent response
    carries the advanced ``graph_version``.

    *Shutdown*: :meth:`PredictionServer.close` stops admission, drains
    queued requests (or fails them fast with
    :class:`~repro.errors.ServerClosedError` when ``drain=False``) and
    retires the batcher task.

``start_tcp_server`` / ``serve_forever``
    A newline-delimited-JSON TCP front-end and the blocking entry point
    behind the ``repro-kge serve`` CLI command.  Protocol: one JSON
    object per line with an ``op`` of ``top_k``, ``stats``, ``health``,
    ``ping``, ``metrics``, ``swap``, ``apply_delta`` or ``shutdown``;
    responses echo the request ``id`` and
    carry either the payload (``ok: true``) or a structured error with
    a machine-readable ``code`` (``ok: false``).  A request line longer
    than :data:`MAX_LINE_BYTES` is answered with code ``too_large`` and
    skipped; the connection keeps serving.  Filtered-out candidates'
    ``-inf`` scores are transported as ``null``.

*Telemetry*: the server's :class:`~repro.obs.MetricsRegistry` holds the
``server.*`` counters, the ``ingest.*`` counters of live deltas and three
latency histograms (``server.service_seconds`` per request,
``server.dispatch_seconds`` per group, ``server.wait_seconds`` per
request from admission to scored answer: queueing, the thread hop and
scoring).  The deployment's predictor and index keep their own
registries, so a hot-swap starts those from zero.  Every read surface
renders one merged :meth:`PredictionServer.snapshot`.  Tracing is
opt-in: span scopes are no-ops until a tracer is installed
(:func:`repro.obs.install_tracer` — the daemon entry point arms one).

Everything here is plain CPython stdlib (asyncio + json + numpy already
required by the library); there is no third-party server framework.
"""

from __future__ import annotations

import asyncio
import collections
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    ArtifactError,
    CorruptArtifactError,
    DeadlineExceededError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    StaleIndexError,
)
from repro.obs.expo import prometheus_text
from repro.obs.registry import MetricsRegistry, MetricsSnapshot, metrics_scope
from repro.obs.trace import current_span_id, trace_scope
from repro.reliability import faults
from repro.serving.predictor import LinkPredictor, query_slots

_LOG = logging.getLogger("repro.serving")

#: Fault-injection site fired once per micro-batch group dispatch.
DISPATCH_SITE = "server.dispatch"

#: Clamp bounds for one per-request service-time sample (seconds).  A
#: single pathological batch (GC pause, page-in, injected slow fault)
#: would otherwise poison the retry-after hint for many requests.
SERVICE_EMA_FLOOR_S = 1e-4
SERVICE_EMA_CEILING_S = 5.0

#: Clamp bounds for the overload hint itself (milliseconds).
RETRY_AFTER_FLOOR_MS = 1.0
RETRY_AFTER_CEILING_MS = 10_000.0

#: Default wall-clock threshold (ms) above which a micro-batch group's
#: scoring call lands in the slow-query ring; overridable per server and
#: via a run's ``observability.slow_query_ms`` config knob.
DEFAULT_SLOW_QUERY_MS = 250.0

#: How many slow-query records the in-memory ring keeps.
SLOW_QUERY_RING = 64

#: Longest request line the TCP front-end reads (asyncio's default
#: stream limit).  It also caps the size of an ``apply_delta`` payload.
MAX_LINE_BYTES = 64 * 1024


def k_bucket(k: int) -> int:
    """The power-of-two bucket a requested ``k`` coalesces into.

    Requests whose k rounds up to the same bucket share one predictor
    call; each answer is sliced back to its own k afterwards (a top-k
    prefix of a larger top-k is exact under the stable tie rule).
    """
    if k < 1:
        raise ServingError("k must be >= 1")
    return 1 << (int(k) - 1).bit_length()


#: Keyword knobs the wire ``apply_delta`` op may forward to
#: :func:`repro.ingest.ingest_delta` (mirrors ``IngestSection``).
_INGEST_KNOBS = frozenset(
    {
        "epochs",
        "batch_size",
        "learning_rate",
        "optimizer",
        "num_negatives",
        "seed",
        "drift_threshold",
        "grow_initializer",
    }
)


@dataclass(frozen=True)
class Deployment:
    """One warm, servable model: a predictor plus its identity tags.

    ``degraded`` marks deployments that came up without their persisted
    index (it failed an integrity or freshness check at load time) —
    answers are exact but pay full sweeps.
    """

    predictor: LinkPredictor
    generation: int
    run_dir: str | None = None
    label: str | None = None
    degraded: bool = False
    #: Monotonic count of graph deltas hot-applied to this serving line
    #: (see :meth:`PredictionServer.apply_delta`); 0 for a fresh deploy.
    graph_version: int = 0

    @property
    def scoring_version(self) -> int:
        return self.predictor.model.scoring_version


@dataclass(frozen=True)
class ServedTopK:
    """One request's answer, tagged with the deployment that served it.

    ``ids``/``scores`` are 1-D arrays of length ≤ k (index-served
    shortlists may pad with ``-1``/``-inf``; see
    :class:`~repro.serving.predictor.TopKResult`).  ``generation`` and
    ``scoring_version`` identify the deployment snapshot — a hot-swap
    test can assert no response mixes versions.  ``coalesced`` is the
    size of the predictor call that served this request (how much
    micro-batching actually happened) and ``waited_ms`` the time from
    admission to the scored answer: queueing, the thread hop and
    scoring, but not wire encoding.  ``degraded`` is set when the
    answer came from the exact full-sweep fallback because the
    deployment's index was stale/corrupt (the answer itself is exact —
    degraded refers to latency, not quality).
    """

    ids: np.ndarray
    scores: np.ndarray
    generation: int
    scoring_version: int
    coalesced: int
    waited_ms: float
    degraded: bool = False
    graph_version: int = 0


@dataclass
class _Pending:
    side: str
    first: int
    second: int
    k: int
    filtered: bool
    future: asyncio.Future
    enqueued_at: float
    deadline_at: float | None = None
    bucket: int = field(init=False)

    def __post_init__(self) -> None:
        self.bucket = k_bucket(self.k)


class PredictionServer:
    """Coalesce concurrent top-k requests into micro-batched sweeps.

    Parameters
    ----------
    predictor:
        The initial deployment, or ``None`` to start empty (deploy later
        via :meth:`swap_predictor`/:meth:`load_run`).
    max_batch:
        Most queued requests taken into one micro-batch.  The batcher
        never waits for a batch to fill: ``1`` is request-at-a-time
        serving (the benchmark's baseline).
    queue_depth:
        Admission cap; requests beyond it fast-fail with
        :class:`~repro.errors.ServerOverloadedError`.
    label:
        Optional deployment label echoed in :meth:`stats`.
    default_deadline_ms:
        Deadline budget applied to requests that do not carry their own
        ``deadline_ms``; ``None`` (the default) means requests wait
        indefinitely for dispatch.
    slow_query_ms:
        Wall-clock threshold above which a micro-batch group's scoring
        call is recorded in the slow-query ring (and logged at WARNING).
        ``None`` adopts :data:`DEFAULT_SLOW_QUERY_MS` — or, under
        :meth:`load_run`, the run's ``observability.slow_query_ms``.
    """

    def __init__(
        self,
        predictor: LinkPredictor | None = None,
        *,
        max_batch: int = 64,
        queue_depth: int = 1024,
        label: str | None = None,
        default_deadline_ms: float | None = None,
        slow_query_ms: float | None = None,
    ) -> None:
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ServingError("queue_depth must be >= 1")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ServingError("default_deadline_ms must be > 0 (or None)")
        if slow_query_ms is not None and slow_query_ms <= 0:
            raise ServingError("slow_query_ms must be > 0 (or None)")
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        self.default_deadline_ms = (
            float(default_deadline_ms) if default_deadline_ms is not None else None
        )
        #: None means "not explicitly configured" — load_run may adopt
        #: the run's observability.slow_query_ms before falling back to
        #: the module default.
        self._slow_query_ms_explicit = slow_query_ms is not None
        self.slow_query_ms = (
            float(slow_query_ms) if slow_query_ms is not None else DEFAULT_SLOW_QUERY_MS
        )
        #: The ``server.*`` counters and latency histograms (and the
        #: ``ingest.*`` counters of live deltas); see :meth:`snapshot`.
        self.metrics = MetricsRegistry()
        self._slow_queries: collections.deque[dict] = collections.deque(
            maxlen=SLOW_QUERY_RING
        )
        self._pending: collections.deque[_Pending] = collections.deque()
        self._wake = asyncio.Event()
        self._swap_lock = asyncio.Lock()
        self._task: asyncio.Task | None = None
        self._closing = False
        self._closed = False
        self._generation = 0
        self._active: Deployment | None = None
        #: Sticky until the next successful swap: the server answered at
        #: least one request (or came up) without its index.
        self._degraded = False
        if predictor is not None:
            self._generation = 1
            self._active = Deployment(predictor, 1, label=label)

    # ---------------------------------------------------------------- state
    @property
    def deployment(self) -> Deployment | None:
        """The currently active deployment (None before the first deploy)."""
        return self._active

    @property
    def generation(self) -> int:
        """Monotonic deployment counter; bumps on every hot-swap."""
        return self._generation

    @property
    def queue_len(self) -> int:
        return len(self._pending)

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def degraded(self) -> bool:
        """True once any answer (or the deployment itself) bypassed the
        index because it was stale/corrupt; reset by a successful swap."""
        return self._degraded

    def snapshot(self) -> MetricsSnapshot:
        """One read of every serving counter: the server's registry merged
        with the active deployment's, plus queue and generation levels.
        Each read surface renders exactly one, so no view mixes two
        deployments."""
        snapshot = self.metrics.snapshot().merged(
            MetricsSnapshot(
                gauges={
                    "server.queue_len": float(len(self._pending)),
                    "server.queue_depth": float(self.queue_depth),
                    "server.generation": float(self._generation),
                    "server.slow_query_ms": self.slow_query_ms,
                }
            )
        )
        if self._active is not None:
            snapshot = snapshot.merged(self._active.predictor.metrics_snapshot())
        return snapshot

    def health_dict(self) -> dict:
        """Liveness/degradation summary for the wire ``health`` op.

        ``status`` is ``"empty"`` (nothing deployed), ``"closing"``,
        ``"degraded"`` (serving exact fallbacks) or ``"ok"``.
        """
        counters = self.snapshot().counters
        active = self._active
        if self._closing or self._closed:
            status = "closing"
        elif active is None:
            status = "empty"
        elif self._degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "degraded": self._degraded,
            "generation": self._generation,
            "graph_version": active.graph_version if active else None,
            "queue_len": len(self._pending),
            "queue_depth": self.queue_depth,
            "degraded_served": counters.get("server.degraded", 0),
            "deadline_expired": counters.get("server.deadline_expired", 0),
            "index_attached": bool(active and active.predictor.index is not None),
        }

    def stats_dict(self) -> dict:
        """JSON-compatible snapshot of the server's counters and state."""
        active = self._active
        snapshot = self.snapshot()
        counters = snapshot.counters

        def count(name: str) -> int:
            return counters.get("server." + name, 0)

        dispatch_calls = count("dispatch_calls")
        return {
            "generation": self._generation,
            "graph_version": active.graph_version if active else None,
            "scoring_version": active.scoring_version if active else None,
            "run_dir": active.run_dir if active else None,
            "label": active.label if active else None,
            "queue_len": len(self._pending),
            "queue_depth": self.queue_depth,
            "max_batch": self.max_batch,
            "closing": self._closing,
            "submitted": count("submitted"),
            "served": count("served"),
            "rejected": count("rejected"),
            "failed": count("failed"),
            "cancelled": count("cancelled"),
            "batches": count("batches"),
            "dispatch_calls": dispatch_calls,
            "mean_coalesced": (
                count("coalesced_total") / dispatch_calls if dispatch_calls else 0.0
            ),
            "coalesced_max": count("coalesced_max"),
            "swaps": count("swaps"),
            "peak_depth": count("peak_depth"),
            "degraded": self._degraded,
            "degraded_served": count("degraded"),
            "deadline_expired": count("deadline_expired"),
            "deltas_applied": counters.get("ingest.deltas_applied", 0),
            "index": active.predictor.index_stats_dict(snapshot) if active else None,
        }

    def metrics_dict(self) -> dict:
        """Full merged snapshot (:meth:`snapshot`) for the wire ``metrics`` op,
        with the slow-query ring."""
        active = self._active
        return {
            "generation": self._generation,
            "graph_version": active.graph_version if active else None,
            "slow_query_ms": self.slow_query_ms,
            "metrics": self.snapshot().to_dict(),
            "slow_queries": list(self._slow_queries),
        }

    def metrics_text(self) -> str:
        """The same snapshot as :meth:`metrics_dict`, Prometheus-style."""
        return prometheus_text(self.snapshot())

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "PredictionServer":
        """Spawn the batcher task on the running loop; idempotent."""
        if self._closed:
            raise ServerClosedError("server already closed")
        if self._task is None:
            self._task = asyncio.create_task(self._batch_loop(), name="repro-batcher")
        return self

    async def close(self, drain: bool = True) -> None:
        """Stop admission, then drain (default) or fail queued requests."""
        if self._closed:
            return
        self._closing = True
        if not drain:
            failed = 0
            while self._pending:
                request = self._pending.popleft()
                if not request.future.done():
                    request.future.set_exception(
                        ServerClosedError("server shut down before dispatch")
                    )
                    failed += 1
            if failed:
                self.metrics.inc("server.failed", failed)
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        self._closed = True

    async def __aenter__(self) -> "PredictionServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------- hot swap
    async def swap_predictor(
        self,
        predictor: LinkPredictor,
        *,
        run_dir: str | None = None,
        label: str | None = None,
        degraded: bool = False,
    ) -> Deployment:
        """Atomically flip serving to *predictor*.

        Waits for the in-flight micro-batch (the dispatch lock), so a
        batch is always answered entirely by the deployment it started
        under.  A stale attached index (``on_stale="error"``) raises
        :class:`~repro.errors.StaleIndexError` *before* the flip — the
        old deployment keeps serving.  A successful swap clears the
        server's sticky degraded flag unless the new deployment is
        itself *degraded* (came up without its persisted index).
        """
        if predictor.index is not None:
            # Surface staleness now, not lazily on the first request.
            predictor.index.ensure_fresh()
        async with self._swap_lock:
            self._generation += 1
            self._active = Deployment(
                predictor,
                self._generation,
                run_dir=run_dir,
                label=label,
                degraded=degraded,
            )
            self.metrics.inc("server.swaps")
            self._degraded = bool(degraded)
            # A new deployment has a new latency profile.  Carrying the
            # old model's service times across the swap mis-prices the
            # retry-after hint for every overloaded client — e.g.
            # swapping an exact-sweep deployment for an indexed one kept
            # quoting sweep-sized backoffs.  Reset the service-time
            # histogram so the hint is rebuilt from post-swap
            # measurements only.
            self.metrics.reset("server.service_seconds")
            return self._active

    async def load_run(
        self,
        run_dir: str | Path,
        *,
        index: str | None = "auto",
        label: str | None = None,
        **predictor_kwargs,
    ) -> Deployment:
        """Load a run directory in the background and hot-swap onto it.

        The checkpoint/dataset/index load happens in a worker thread —
        in-flight and newly arriving requests keep being served by the
        current deployment throughout.  Persisted indexes are loaded
        with ``on_stale="error"``: under ``index="auto"`` a stale,
        corrupt or incomplete saved index **degrades** the deployment
        (it comes up serving exact full sweeps, tagged in
        :meth:`health_dict`) instead of refusing to serve;
        ``index="require"`` keeps the strict behaviour and raises.  A
        damaged checkpoint still fails the deploy, from the index-free
        retry.
        """

        def _build() -> tuple[LinkPredictor, bool]:
            from repro.pipeline.runner import serve_run

            try:
                return (
                    serve_run(
                        str(run_dir), index=index, on_stale="error", **predictor_kwargs
                    ),
                    False,
                )
            except (StaleIndexError, ArtifactError):
                if index != "auto":
                    raise
                # Availability over latency: serve the checkpoint with
                # exact sweeps rather than refuse the deploy outright.
                return (
                    serve_run(str(run_dir), index=None, **predictor_kwargs),
                    True,
                )

        predictor, degraded = await asyncio.to_thread(_build)
        if not self._slow_query_ms_explicit:
            # Adopt the run's observability threshold unless the caller
            # pinned one on the server itself.
            try:
                config = json.loads(
                    (Path(run_dir) / "config.json").read_text(encoding="utf-8")
                )
                threshold = config.get("observability", {}).get("slow_query_ms")
                if isinstance(threshold, (int, float)) and threshold > 0:
                    self.slow_query_ms = float(threshold)
            except (OSError, json.JSONDecodeError):
                pass
        return await self.swap_predictor(
            predictor, run_dir=str(run_dir), label=label, degraded=degraded
        )

    # ------------------------------------------------------------- ingestion
    async def apply_delta(self, delta, **ingest_kwargs) -> dict:
        """Hot-apply a :class:`~repro.ingest.GraphDelta` to the active line.

        The full ingest pipeline — transactional dataset apply,
        embedding-table growth, touched-row fine-tuning, incremental
        index maintenance (:func:`repro.ingest.ingest_delta`) — runs in
        a worker thread, recording its ``ingest.*`` counters into
        :attr:`metrics`, **while holding the swap lock**, the same lock
        every micro-batch dispatch holds while scoring.  No response is
        ever computed against a half-applied delta: queries either see
        the pre-delta deployment or the post-delta one, whose
        ``graph_version`` (echoed on every :class:`ServedTopK`) has
        advanced by one.  *delta* may be a :class:`GraphDelta` or its
        ``to_dict`` payload; keyword knobs are forwarded to
        :func:`~repro.ingest.ingest_delta`.  An empty delta is a no-op:
        the receipt reports ``applied: false`` and neither the
        generation nor the graph version moves.
        """
        from repro.ingest import GraphDelta, ingest_delta

        if isinstance(delta, dict):
            delta = GraphDelta.from_dict(delta)
        if not isinstance(delta, GraphDelta):
            raise ServingError(
                f"apply_delta needs a GraphDelta or its dict form; got "
                f"{type(delta).__name__}"
            )
        if self._closing:
            raise ServerClosedError("server is shutting down; request refused")
        async with self._swap_lock:
            deployment = self._active
            if deployment is None:
                raise ServingError(
                    "no model deployed; call load_run/swap_predictor first"
                )
            predictor = deployment.predictor
            if predictor.dataset is None:
                raise ServingError(
                    "apply_delta needs a deployment backed by a dataset"
                )

            def _apply():
                # ingest_delta records its counters into the installed
                # (process-wide) registry; nothing else on the serving
                # path records there while this runs.
                with metrics_scope(self.metrics):
                    return ingest_delta(
                        predictor.model,
                        predictor.dataset,
                        delta,
                        index=predictor.index,
                        **ingest_kwargs,
                    )

            outcome = await asyncio.to_thread(_apply)
            receipt = outcome.to_dict()
            if not outcome.applied:
                receipt["generation"] = deployment.generation
                receipt["graph_version"] = deployment.graph_version
                return receipt
            # Mutate the predictor in place: version-keyed caches resync
            # on the next query, and the spliced index must NOT be
            # invalidated (clear_cache would discard the splice).
            predictor.dataset = outcome.dataset
            if predictor._filter_index is not None:
                predictor._filter_index = outcome.dataset.filter_index
            self._generation += 1
            self._active = Deployment(
                predictor,
                self._generation,
                run_dir=deployment.run_dir,
                label=deployment.label,
                degraded=deployment.degraded,
                graph_version=deployment.graph_version + 1,
            )
            receipt["generation"] = self._active.generation
            receipt["graph_version"] = self._active.graph_version
            receipt["scoring_version"] = self._active.scoring_version
            return receipt

    # ------------------------------------------------------------- requests
    def _observe_service_time(self, per_request: float) -> None:
        """Record one per-request service time in ``server.service_seconds``.

        The sample is clamped to ``[SERVICE_EMA_FLOOR_S,
        SERVICE_EMA_CEILING_S]`` first: one pathological measurement
        (page-in, GC pause, injected slow fault) must not balloon the
        retry-after hint handed to every rejected client afterwards, and
        a sub-microsecond fluke must not collapse it to nothing.
        """
        sample = min(max(per_request, SERVICE_EMA_FLOOR_S), SERVICE_EMA_CEILING_S)
        self.metrics.observe("server.service_seconds", sample)

    def _retry_after_ms(self) -> float:
        # Each queued request costs one per-request service time (the
        # samples already spread each batch over its requests), priced at
        # the p90 of the generation-scoped histogram; a 50ms prior stands
        # in until the deployment has a measurement.
        service = self.metrics.quantile("server.service_seconds", 0.9)
        if service is None:
            service = 0.05
        hint = 1000.0 * len(self._pending) * service
        return min(max(hint, RETRY_AFTER_FLOOR_MS), RETRY_AFTER_CEILING_MS)

    async def top_k(
        self,
        anchor: int,
        other: int,
        *,
        side: str = "tail",
        k: int = 10,
        filtered: bool = False,
        deadline_ms: float | None = None,
    ) -> ServedTopK:
        """Await the top-k completions of one query, micro-batched.

        The slots follow :meth:`LinkPredictor.top_k
        <repro.serving.predictor.LinkPredictor.top_k>`: ``side="tail"``
        takes ``(head, relation)``, ``side="head"`` takes ``(tail,
        relation)`` and ``side="relation"`` takes ``(head, tail)``.  The
        query is checked at admission by the active predictor's
        :meth:`~repro.serving.predictor.LinkPredictor.check_query` — one
        bad request fails alone, never the micro-batch it would join.
        ``deadline_ms`` must be a finite number of milliseconds > 0;
        ``None`` inherits the server's ``default_deadline_ms``.
        """
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        elif (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool)
            or not (math.isfinite(deadline_ms) and deadline_ms > 0)
        ):
            raise ServingError(
                f"deadline_ms must be a finite number > 0 (or None), got {deadline_ms!r}"
            )
        if self._closing:
            raise ServerClosedError("server is shutting down; request refused")
        if self._active is None:
            raise ServingError("no model deployed; call load_run/swap_predictor first")
        anchor, other = int(anchor), int(other)
        self._active.predictor.check_query(
            [anchor], [other], side=side, k=k, filtered=filtered
        )
        if len(self._pending) >= self.queue_depth:
            self.metrics.inc("server.rejected")
            raise ServerOverloadedError(
                f"request queue at admission cap ({self.queue_depth}); retry later",
                retry_after_ms=self._retry_after_ms(),
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        request = _Pending(
            side=side,
            first=anchor,
            second=other,
            k=int(k),
            filtered=bool(filtered),
            future=loop.create_future(),
            enqueued_at=now,
            deadline_at=now + deadline_ms / 1000.0 if deadline_ms else None,
        )
        self._pending.append(request)
        self.metrics.inc("server.submitted")
        self.metrics.counter_max("server.peak_depth", len(self._pending))
        self._wake.set()
        return await request.future

    # -------------------------------------------------------------- batcher
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            # Work-conserving: take what queued while the last batch
            # scored (or in this event-loop turn), never wait for more.
            batch = [
                self._pending.popleft()
                for _ in range(min(self.max_batch, len(self._pending)))
            ]
            await self._dispatch(batch, loop)

    async def _dispatch(self, batch: list[_Pending], loop) -> None:
        self.metrics.inc("server.batches")
        now = loop.time()
        groups: dict[tuple[str, bool, int], list[_Pending]] = {}
        cancelled = expired = 0
        for request in batch:
            if request.future.cancelled():
                cancelled += 1
                continue
            if request.deadline_at is not None and now >= request.deadline_at:
                # The budget is gone before any scoring started; failing
                # fast here keeps dead requests from occupying batch
                # slots that live ones could use.
                request.future.set_exception(
                    DeadlineExceededError(
                        f"request waited {1000.0 * (now - request.enqueued_at):.1f}ms "
                        "in queue, past its deadline; retry with a larger "
                        "deadline_ms or when the server is less loaded"
                    )
                )
                expired += 1
                continue
            key = (request.side, request.filtered, request.bucket)
            groups.setdefault(key, []).append(request)
        if cancelled:
            self.metrics.inc("server.cancelled", cancelled)
        if expired:
            self.metrics.inc("server.deadline_expired", expired)
            self.metrics.inc("server.failed", expired)
        # Hold the dispatch lock across the whole micro-batch: a swap can
        # only land between batches, so every response in this batch comes
        # from one deployment snapshot.
        async with self._swap_lock:
            deployment = self._active
            with trace_scope("server.batch", size=len(batch), groups=len(groups)):
                for (side, filtered, bucket), requests in groups.items():
                    await self._dispatch_group(
                        deployment, side, filtered, bucket, requests, loop
                    )

    async def _dispatch_group(
        self,
        deployment: Deployment,
        side: str,
        filtered: bool,
        bucket: int,
        requests: list[_Pending],
        loop,
    ) -> None:
        predictor = deployment.predictor
        first = np.array([r.first for r in requests], dtype=np.int64)
        second = np.array([r.second for r in requests], dtype=np.int64)
        # _score runs on a worker thread, where the tracer's thread-local
        # parent stack is empty — pass the dispatch span id explicitly so
        # predictor/index spans still nest under this group.
        group_span = current_span_id()

        def _score(exact: bool = False):
            with trace_scope(
                "server.dispatch",
                parent=group_span,
                side=side,
                bucket=bucket,
                coalesced=len(requests),
                generation=deployment.generation,
                exact=exact,
            ):
                faults.fire(DISPATCH_SITE, context=f"side:{side};bucket:{bucket}")
                # One entry point for every side: the predictor's unified
                # top_k.  Admission refused relation + filtered, so the
                # shared knobs pass through unchanged.
                return predictor.top_k(
                    first, second, side=side, k=bucket, filtered=filtered, exact=exact
                )

        started = loop.time()
        degraded = False
        try:
            # Score off the event loop so admission/IO stay responsive
            # while numpy sweeps; the dispatch lock still serialises
            # scoring with hot-swaps.
            result = await asyncio.to_thread(_score)
        except (StaleIndexError, CorruptArtifactError):
            # The deployment's index failed at serving time.  Re-answer
            # this group with the exact full-sweep path — correct but
            # slower — and mark the server degraded until the next swap.
            try:
                result = await asyncio.to_thread(_score, True)
            except BaseException as error:  # noqa: BLE001 — forwarded to callers
                self._fail_group(requests, error)
                return
            degraded = True
            self._degraded = True
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            self._fail_group(requests, error)
            return
        elapsed = loop.time() - started
        metrics = self.metrics
        self._observe_service_time(elapsed / len(requests))
        metrics.observe("server.dispatch_seconds", elapsed)
        metrics.inc("server.dispatch_calls")
        metrics.inc("server.coalesced_total", len(requests))
        metrics.counter_max("server.coalesced_max", len(requests))
        if elapsed * 1000.0 >= self.slow_query_ms:
            self._record_slow_query(
                deployment, side, bucket, len(requests), elapsed, degraded
            )
        degraded = degraded or deployment.degraded
        now = loop.time()
        served = 0
        for row, request in enumerate(requests):
            if request.future.done():
                continue
            width = min(request.k, result.ids.shape[1])
            metrics.observe("server.wait_seconds", max(0.0, now - request.enqueued_at))
            request.future.set_result(
                ServedTopK(
                    ids=result.ids[row, :width].copy(),
                    scores=result.scores[row, :width].copy(),
                    generation=deployment.generation,
                    scoring_version=deployment.scoring_version,
                    coalesced=len(requests),
                    waited_ms=1000.0 * (now - request.enqueued_at),
                    degraded=degraded,
                    graph_version=deployment.graph_version,
                )
            )
            served += 1
        if served < len(requests):
            metrics.inc("server.cancelled", len(requests) - served)
        if served:
            metrics.inc("server.served", served)
            if degraded:
                metrics.inc("server.degraded", served)

    def _fail_group(self, requests: list[_Pending], error: BaseException) -> None:
        """Forward a group's scoring error to every request still waiting."""
        failed = 0
        for request in requests:
            if not request.future.done():
                request.future.set_exception(error)
                failed += 1
        if failed:
            self.metrics.inc("server.failed", failed)

    def _record_slow_query(
        self,
        deployment: Deployment,
        side: str,
        bucket: int,
        coalesced: int,
        elapsed: float,
        degraded: bool,
    ) -> None:
        """Ring-buffer (and log) one over-threshold micro-batch group."""
        entry = {
            "side": side,
            "bucket": bucket,
            "coalesced": coalesced,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "per_request_ms": round(elapsed * 1000.0 / max(1, coalesced), 3),
            "generation": deployment.generation,
            "graph_version": deployment.graph_version,
            "degraded": bool(degraded or deployment.degraded),
        }
        self._slow_queries.append(entry)
        self.metrics.inc("server.slow_queries")
        _LOG.warning(
            "slow query: side=%s bucket=%d coalesced=%d took %.1fms "
            "(threshold %.1fms, generation %d%s)",
            side,
            bucket,
            coalesced,
            entry["elapsed_ms"],
            self.slow_query_ms,
            deployment.generation,
            ", degraded" if entry["degraded"] else "",
        )


# ------------------------------------------------------------------ TCP layer
_ERROR_CODES = {
    ServerOverloadedError: "overloaded",
    ServerClosedError: "closed",
    DeadlineExceededError: "deadline",
    StaleIndexError: "stale_index",
    CorruptArtifactError: "corrupt_artifact",
}


def _error_payload(error: Exception) -> dict:
    code = "internal"
    for cls, name in _ERROR_CODES.items():
        if isinstance(error, cls):
            code = name
            break
    else:
        if isinstance(error, ReproError):
            code = "bad_request"
    payload = {"code": code, "message": str(error)}
    if isinstance(error, ServerOverloadedError):
        payload["retry_after_ms"] = error.retry_after_ms
    return payload


def _json_scores(scores: np.ndarray) -> list:
    """Scores as JSON numbers; non-finite (filtered/pad -inf) become null."""
    return [float(s) if math.isfinite(s) else None for s in scores]


async def _handle_top_k(server: PredictionServer, message: dict) -> dict:
    # JSON types are checked here, before admission, so a string "false"
    # is never read as filtered and an unhashable side is a bad request,
    # not an internal error.  Everything else is PredictionServer.top_k's.
    side = message.get("side", "tail")
    k = message.get("k", 10)
    filtered = message.get("filtered", False)
    if not isinstance(side, str):
        raise ServingError(f"side must be a string, got {side!r}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ServingError("k must be an integer")
    if not isinstance(filtered, bool):
        raise ServingError(f"filtered must be a JSON boolean, got {filtered!r}")
    names = query_slots(side)
    values = [message.get(name) for name in names]
    if any(not isinstance(value, int) or isinstance(value, bool) for value in values):
        raise ServingError(f"top_k side={side!r} needs integer {names[0]!r} and "
                           f"{names[1]!r} ids")
    served = await server.top_k(
        *values, side=side, k=k, filtered=filtered, deadline_ms=message.get("deadline_ms")
    )
    return {
        "ids": [int(i) for i in served.ids],
        "scores": _json_scores(served.scores),
        "generation": served.generation,
        "scoring_version": served.scoring_version,
        "graph_version": served.graph_version,
        "coalesced": served.coalesced,
        "waited_ms": served.waited_ms,
        "degraded": served.degraded,
    }


async def _handle_message(
    server: PredictionServer, message: dict, shutdown: asyncio.Event | None
) -> dict:
    op = message.get("op", "top_k")
    if op == "top_k":
        return await _handle_top_k(server, message)
    if op == "stats":
        return {"stats": server.stats_dict()}
    if op == "health":
        return {"health": server.health_dict()}
    if op == "metrics":
        return {"metrics": server.metrics_dict()}
    if op == "ping":
        return {"pong": True, "generation": server.generation}
    if op == "swap":
        run_dir = message.get("run_dir")
        if not isinstance(run_dir, str) or not run_dir:
            raise ServingError("swap needs a run_dir string")
        deployment = await server.load_run(
            run_dir, index=message.get("index", "auto")
        )
        return {
            "generation": deployment.generation,
            "scoring_version": deployment.scoring_version,
            "run_dir": deployment.run_dir,
        }
    if op == "apply_delta":
        delta = message.get("delta")
        if not isinstance(delta, dict):
            raise ServingError("apply_delta needs a delta object")
        knobs = message.get("ingest", {})
        if not isinstance(knobs, dict):
            raise ServingError("ingest knobs must be a JSON object")
        unknown = set(knobs) - _INGEST_KNOBS
        if unknown:
            raise ServingError(
                f"unknown ingest knobs {sorted(unknown)}; known: "
                f"{sorted(_INGEST_KNOBS)}"
            )
        return {"ingest": await server.apply_delta(delta, **knobs)}
    if op == "shutdown":
        if shutdown is None:
            raise ServingError("shutdown is not enabled on this frontend")
        shutdown.set()
        return {"closing": True}
    raise ServingError(
        f"unknown op {op!r}; known: top_k, stats, health, ping, metrics, swap, "
        "apply_delta, shutdown"
    )


async def _serve_connection(
    server: PredictionServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    shutdown: asyncio.Event | None,
) -> None:
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def send(payload: dict) -> None:
        line = json.dumps(payload) + "\n"
        async with write_lock:
            writer.write(line.encode("utf-8"))
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def respond(request_id, coro) -> None:
        try:
            payload = {"id": request_id, "ok": True, **await coro}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — wire errors are structured
            payload = {"id": request_id, "ok": False, "error": _error_payload(error)}
        await send(payload)

    async def refuse(code: str, message: str) -> None:
        await send({"id": None, "ok": False, "error": {"code": code, "message": message}})

    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as error:
                line = error.partial  # a last line without newline; b"" at EOF
            except asyncio.LimitOverrunError:
                await refuse("too_large", f"request line exceeds {MAX_LINE_BYTES} bytes")
                if not await _skip_line(reader):
                    break
                continue
            except ConnectionError:
                break
            if not line:
                break
            text = line.decode("utf-8").strip()
            if not text:
                continue
            try:
                message = json.loads(text)
            except json.JSONDecodeError as error:
                await refuse("bad_request", f"invalid JSON: {error}")
                continue
            if not isinstance(message, dict):
                await refuse("bad_request", "requests must be JSON objects")
                continue
            # Each request runs concurrently so one connection can keep
            # many in flight — that concurrency is what the batcher
            # coalesces.
            task = asyncio.create_task(
                respond(message.get("id"), _handle_message(server, message, shutdown))
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
    except asyncio.CancelledError:
        # Daemon teardown cancels handlers still parked in a read;
        # exiting normally keeps the streams connection_made callback
        # from logging the cancellation as an error.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def _skip_line(reader: asyncio.StreamReader) -> bool:
    """Discard input through the next newline; False if the stream ends first."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as error:
            # The first error.consumed buffered bytes belong to this line
            # and hold no newline: drop them and look further.
            await reader.readexactly(error.consumed)
        except (asyncio.IncompleteReadError, ConnectionError):
            return False


async def start_tcp_server(
    server: PredictionServer,
    host: str = "127.0.0.1",
    port: int = 0,
    shutdown: asyncio.Event | None = None,
) -> asyncio.AbstractServer:
    """Expose *server* over newline-delimited JSON on ``host:port``.

    ``port=0`` binds an ephemeral port — read the real one off
    ``tcp.sockets[0].getsockname()``.  When a *shutdown* event is given,
    the wire op ``{"op": "shutdown"}`` sets it (used by
    :func:`serve_forever` for clean remote shutdown).
    """
    await server.start()
    return await asyncio.start_server(
        lambda reader, writer: _serve_connection(server, reader, writer, shutdown),
        host=host,
        port=port,
        limit=MAX_LINE_BYTES,
    )


async def _serve_forever_async(
    run_dir: str,
    *,
    host: str,
    port: int,
    max_batch: int,
    queue_depth: int,
    index: str | None,
    slow_query_ms: float | None,
) -> None:
    import signal

    from repro.obs.trace import Tracer, install_tracer

    # Arm a bounded in-memory tracer for the daemon's lifetime so the
    # dispatch/predictor span scopes actually record; the ring is only
    # read in-process (it never leaves unless a future op exposes it).
    install_tracer(Tracer())
    server = PredictionServer(
        max_batch=max_batch, queue_depth=queue_depth, slow_query_ms=slow_query_ms
    )
    await server.load_run(run_dir, index=index)
    shutdown = asyncio.Event()
    tcp = await start_tcp_server(server, host=host, port=port, shutdown=shutdown)
    bound_host, bound_port = tcp.sockets[0].getsockname()[:2]
    # Machine-parseable readiness line (the CI smoke script greps for it).
    print(
        f"REPRO-SERVE READY host={bound_host} port={bound_port} "
        f"run_dir={run_dir} generation={server.generation}",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, shutdown.set)
        except (NotImplementedError, RuntimeError):  # non-Unix event loops
            pass
    await shutdown.wait()
    tcp.close()
    await tcp.wait_closed()
    await server.close(drain=True)
    print("REPRO-SERVE STOPPED", flush=True)


def serve_forever(
    run_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = 64,
    queue_depth: int = 1024,
    index: str | None = "auto",
    slow_query_ms: float | None = None,
) -> None:
    """Blocking daemon entry point (the ``repro-kge serve`` command).

    Loads the run directory, serves until SIGINT/SIGTERM or a wire
    ``shutdown`` op, then drains gracefully.
    """
    asyncio.run(
        _serve_forever_async(
            str(run_dir),
            host=host,
            port=port,
            max_batch=max_batch,
            queue_depth=queue_depth,
            index=index,
            slow_query_ms=slow_query_ms,
        )
    )
