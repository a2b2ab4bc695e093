"""Incremental graph ingestion: deltas, warm-start training, index upkeep.

The mutation side of the repository's unified mutation/query API.  A
:class:`GraphDelta` names a transactional batch of graph changes;
:func:`apply_delta` lands it on an immutable
:class:`~repro.kg.graph.KGDataset` (producing a successor whose filter
index is updated incrementally, never rebuilt); and :func:`ingest_delta`
runs the full warm-start pipeline — table growth, touched-row
fine-tuning, incremental IVF maintenance — that the ``ingest`` CLI
command and the serving daemon's ``apply_delta`` op share.  The daemon
runs it on a private copy of the deployed model and counts the served
``graph_version`` on its deployments.
"""

from repro.ingest.apply import DeltaStats, apply_delta
from repro.ingest.delta import GraphDelta
from repro.ingest.service import IngestOutcome, ingest_delta
from repro.ingest.warm import WarmStartReport, fine_tune_delta, grow_model

__all__ = [
    "DeltaStats",
    "GraphDelta",
    "IngestOutcome",
    "WarmStartReport",
    "apply_delta",
    "fine_tune_delta",
    "grow_model",
    "ingest_delta",
]
