"""repro.obs — the telemetry plane: metrics, tracing, exposition.

Why this package exists
-----------------------
Every subsystem grown so far — the serving daemon, the process pool,
the IVF/PQ index, ingestion — kept its own ad-hoc counters with no
shared schema, no latency distributions, and no way to answer "where
did this slow request spend its time?".  This package unifies them:

:mod:`repro.obs.registry`
    Deterministic counters, gauges, and fixed-bucket latency
    histograms.  Instrumented code calls module-level free functions
    (``inc`` / ``observe`` / ``gauge_set``) that are a ``None``-check
    no-op until :func:`install_metrics_registry` arms them — the same
    discipline as ``install_fault_injector``.  Snapshots are picklable
    and merge across process boundaries, so pool workers ship their
    metrics home alongside task results.

:mod:`repro.obs.trace`
    ``trace_scope()`` spans with explicit parent/child ids and a
    bounded in-memory ring; runs emit ``telemetry.jsonl`` (excluded
    from the artifact manifest — telemetry never changes what a run
    hashes to).

:mod:`repro.obs.expo` / :mod:`repro.obs.summary`
    Read side: Prometheus-style text dump and the ``repro obs``
    span-tree summary.  Components that own long-lived counters (the
    serving daemon, the predictor, the index) hold their own registry
    instances and merge snapshots at read time.

Like :mod:`repro.index`, the package is lazy (PEP 562): importing
``repro.obs`` pays for nothing until an attribute is touched, and the
hot-path modules are stdlib-only.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "DEFAULT_BUCKETS_S": "repro.obs.registry",
    "HistogramSnapshot": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "MetricsSnapshot": "repro.obs.registry",
    "active_registry": "repro.obs.registry",
    "gauge_max": "repro.obs.registry",
    "gauge_set": "repro.obs.registry",
    "inc": "repro.obs.registry",
    "install_metrics_registry": "repro.obs.registry",
    "merge_snapshot": "repro.obs.registry",
    "metrics_scope": "repro.obs.registry",
    "observe": "repro.obs.registry",
    "Span": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "active_tracer": "repro.obs.trace",
    "current_span_id": "repro.obs.trace",
    "install_tracer": "repro.obs.trace",
    "telemetry_scope": "repro.obs.trace",
    "trace_scope": "repro.obs.trace",
    "prometheus_text": "repro.obs.expo",
    "TELEMETRY_FILE": "repro.obs.summary",
    "load_telemetry": "repro.obs.summary",
    "render_span_tree": "repro.obs.summary",
    "summarize_run": "repro.obs.summary",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY_EXPORTS)

__all__ = sorted(_LAZY_EXPORTS)
