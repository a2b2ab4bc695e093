"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the write side of the telemetry plane.  Three metric
families, all with deterministic state given a deterministic workload:

``counters``
    Monotonic integers (``inc``).  Merging snapshots sums them, so a
    counter aggregated across pool workers equals the serial count.
``gauges``
    Last-written floats (``gauge_set``) with a ``gauge_max`` variant for
    peaks.  Merging takes the max — the only order-independent choice —
    so gauges are best used for high-water marks and sampled levels.
``histograms``
    Fixed-bucket latency histograms (``observe``).  Bucket bounds are
    chosen at first observe and frozen into the snapshot; merging sums
    per-bucket counts, so quantile estimates compose across processes.

Process-wide instrumentation (training, eval, pool, ingest) calls the
module-level :func:`inc` / :func:`gauge_set` / :func:`observe` free
functions, which are a ``None``-check no-op unless a registry has been
installed with :func:`install_metrics_registry` (exactly the
:func:`repro.reliability.faults.install_fault_injector` discipline, so
the disabled path costs one global load and one comparison).  Serving
components (daemon, predictor, index) own a registry instance each and
write it directly.

Snapshots (:class:`MetricsSnapshot`) are frozen, picklable, and merge
with :meth:`MetricsSnapshot.merged` — the parallel pool attaches one to
each :class:`~repro.parallel.pool.TaskOutcome` and the parent folds
them back into its own registry, so cross-process aggregation needs no
shared memory.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ConfigError

#: Default histogram bounds (seconds): 100 µs … 10 s in a 1-2.5-5-ish
#: ladder, plus the implicit +inf bucket.  Wide enough for everything
#: from a cache hit to a cold sharded evaluation.
DEFAULT_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: bounds, per-bucket counts, sum/count/extrema.

    ``counts`` has ``len(bounds) + 1`` entries — the last bucket is
    ``+inf``.  ``counts[i]`` is the number of observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]``.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: float = 0.0
    count: int = 0
    min_value: float | None = None
    max_value: float | None = None

    def merged(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if other.bounds != self.bounds:
            raise ConfigError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        lo = [v for v in (self.min_value, other.min_value) if v is not None]
        hi = [v for v in (self.max_value, other.max_value) if v is not None]
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
            min_value=min(lo) if lo else None,
            max_value=max(hi) if hi else None,
        )

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Deterministic upper-bound quantile estimate.

        Returns the upper edge of the first bucket whose cumulative
        count reaches ``q * count`` (the +inf bucket reports the
        observed maximum).  An upper bound is the right bias for
        backpressure hints: it never under-estimates service time.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for position, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if position < len(self.bounds):
                    return self.bounds[position]
                return self.max_value
        return self.max_value

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramSnapshot":
        return cls(
            bounds=tuple(data["bounds"]),
            counts=tuple(data["counts"]),
            total=float(data["total"]),
            count=int(data["count"]),
            min_value=data.get("min"),
            max_value=data.get("max"),
        )


class _Histogram:
    """Mutable histogram; lives inside a registry, snapshots to frozen state."""

    __slots__ = ("bounds", "counts", "total", "count", "min_value", "max_value")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS_S) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            total=self.total,
            count=self.count,
            min_value=self.min_value,
            max_value=self.max_value,
        )

    @classmethod
    def from_snapshot(cls, snap: HistogramSnapshot) -> "_Histogram":
        hist = cls(snap.bounds)
        hist.counts = list(snap.counts)
        hist.total = snap.total
        hist.count = snap.count
        hist.min_value = snap.min_value
        hist.max_value = snap.max_value
        return hist


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen, picklable registry state; merges across process boundaries."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        histograms = dict(self.histograms)
        for name, snap in other.histograms.items():
            histograms[name] = (
                histograms[name].merged(snap) if name in histograms else snap
            )
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def to_dict(self) -> dict:
        """Deterministic (sorted-key) plain-dict form for JSON emission."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters={k: int(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                k: HistogramSnapshot.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
        )


class MetricsRegistry:
    """One process-local (or component-local) metrics store.

    Each metric has one writing thread — in the serving daemon the
    scoring thread writes the predictor's and the index's registries,
    the event loop the server's ``server.*`` metrics and a live delta's
    ingest thread its ``ingest.*`` ones — and worker processes each own
    a private registry.  Reads may come from any thread: :meth:`snapshot`
    copies each store before walking it.  Plain ``dict`` operations keep
    the enabled path cheap.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------- counters
    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter_max(self, name: str, value: int) -> None:
        """Raise a high-water-mark counter to *value* if it is higher."""
        if value > self._counters.get(name, 0):
            self._counters[name] = int(value)

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    # --------------------------------------------------------------- gauges
    def gauge_set(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        value = float(value)
        if name not in self._gauges or value > self._gauges[name]:
            self._gauges[name] = value

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    # ----------------------------------------------------------- histograms
    def observe(
        self, name: str, value: float, bounds: Iterable[float] | None = None
    ) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = _Histogram(tuple(bounds) if bounds is not None else DEFAULT_BUCKETS_S)
            self._histograms[name] = hist
        hist.observe(value)

    def quantile(self, name: str, q: float) -> float | None:
        hist = self._histograms.get(name)
        return hist.snapshot().quantile(q) if hist is not None else None

    def histogram_count(self, name: str) -> int:
        hist = self._histograms.get(name)
        return hist.count if hist is not None else 0

    # ------------------------------------------------------------ lifecycle
    def reset(self, name: str) -> None:
        """Drop one metric by name, whatever family it belongs to."""
        self._counters.pop(name, None)
        self._gauges.pop(name, None)
        self._histograms.pop(name, None)

    def reset_prefix(self, prefix: str) -> None:
        """Drop every metric whose name starts with *prefix* (generation scoping)."""
        for store in (self._counters, self._gauges, self._histograms):
            for name in [n for n in store if n.startswith(prefix)]:
                del store[name]

    def snapshot(self) -> MetricsSnapshot:
        # dict(...) copies in C without running Python code, so a writer
        # thread cannot add a name mid-copy.  Walking items() instead, even
        # into list(...), allocates tuples; a GC pass they trigger can run
        # finalizers, which hand the interpreter lock to that writer.
        histograms = dict(self._histograms)
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={name: hist.snapshot() for name, hist in histograms.items()},
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot from another process/scope into this registry."""
        for name, value in snapshot.counters.items():
            self.inc(name, value)
        for name, value in snapshot.gauges.items():
            self.gauge_max(name, value)
        for name, snap in snapshot.histograms.items():
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = _Histogram.from_snapshot(snap)
            else:
                merged = hist.snapshot().merged(snap)
                self._histograms[name] = _Histogram.from_snapshot(merged)


# --------------------------------------------------------------- active scope
_ACTIVE: MetricsRegistry | None = None


def install_metrics_registry(
    registry: MetricsRegistry | None,
) -> MetricsRegistry | None:
    """Install *registry* as this process's active registry; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def active_registry() -> MetricsRegistry | None:
    return _ACTIVE


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the active registry (no-op when none)."""
    if _ACTIVE is not None:
        _ACTIVE.inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge on the active registry (no-op when none)."""
    if _ACTIVE is not None:
        _ACTIVE.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a high-water-mark gauge on the active registry (no-op when none)."""
    if _ACTIVE is not None:
        _ACTIVE.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the active registry (no-op when none)."""
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value)


def merge_snapshot(snapshot: MetricsSnapshot) -> None:
    """Merge *snapshot* into the active registry (no-op when none)."""
    if _ACTIVE is not None:
        _ACTIVE.merge(snapshot)


class metrics_scope:
    """Context manager installing a registry for a ``with`` block.

    >>> with metrics_scope(MetricsRegistry()) as registry:
    ...     ...  # instrumented code in this block records into `registry`
    """

    def __init__(self, registry: MetricsRegistry | None) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry | None:
        self._previous = install_metrics_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        install_metrics_registry(self._previous)
