"""Parallel execution engine: process pools, model payloads, parallel sweeps.

The engine has three layers:

* :mod:`repro.parallel.pool` — the one process-pool primitive
  (:func:`~repro.parallel.pool.run_tasks`) with an in-process
  ``workers=0`` fallback and per-task crash capture;
* :mod:`repro.parallel.payload` — in-memory model checkpoints so worker
  processes rebuild bit-identical scorers without touching disk;
* two consumers: :class:`~repro.eval.evaluator.LinkPredictionEvaluator`
  (its ``shards``/``workers`` settings, metrics bit-identical to the
  unsharded sweep) and :mod:`repro.parallel.sweeps` (crash-isolated,
  resumable sweep children for :func:`repro.pipeline.sweep.sweep`).

Submodules are imported lazily (PEP 562): ``sweeps`` imports the
pipeline runner, whose evaluator imports ``pool`` and ``payload`` from
this package, so eager imports would cycle.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "TaskOutcome": "repro.parallel.pool",
    "default_start_method": "repro.parallel.pool",
    "run_tasks": "repro.parallel.pool",
    "ModelPayload": "repro.parallel.payload",
    "model_from_payload": "repro.parallel.payload",
    "model_to_payload": "repro.parallel.payload",
    "config_hash": "repro.parallel.sweeps",
    "load_cached_child": "repro.parallel.sweeps",
    "read_status": "repro.parallel.sweeps",
    "run_sweep_child": "repro.parallel.sweeps",
    "write_status": "repro.parallel.sweeps",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY_EXPORTS)
