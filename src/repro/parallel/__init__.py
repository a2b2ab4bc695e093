"""Parallel execution engine: process pools and model payloads.

* :mod:`repro.parallel.pool` — the one process-pool primitive
  (:func:`~repro.parallel.pool.run_tasks`) with an in-process
  ``workers=0`` mode and per-task crash capture;
* :mod:`repro.parallel.payload` — in-memory model checkpoints so worker
  processes rebuild bit-identical scorers without touching disk.

Its consumers: :class:`~repro.eval.evaluator.LinkPredictionEvaluator`
(its ``shards``/``workers`` settings, metrics bit-identical to the
default evaluator), :func:`repro.pipeline.sweep.sweep` (every sweep,
serial or pooled: crash-isolated, resumable children) and
:meth:`repro.index.ivf.IVFIndex.build` (per-partition k-means).
"""

from __future__ import annotations

from repro.parallel.payload import ModelPayload, model_from_payload, model_to_payload
from repro.parallel.pool import TaskOutcome, default_start_method, run_tasks

__all__ = [
    "ModelPayload",
    "TaskOutcome",
    "default_start_method",
    "model_from_payload",
    "model_to_payload",
    "run_tasks",
]
