"""End-to-end ingestion: one call from delta to updated model + index.

:func:`ingest_delta` is the orchestration the ``ingest`` CLI command and
the serving daemon's ``apply_delta`` op share: apply the delta to the
dataset, grow the embedding tables, fine-tune the touched rows, and
maintain the retrieval index incrementally (when one is attached).  Its
keyword knobs mirror :class:`~repro.pipeline.config.IngestSection`
field-for-field, so config-driven callers can splat the section in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.ingest.apply import DeltaStats, _empty_stats, apply_delta
from repro.ingest.delta import GraphDelta
from repro.ingest.warm import WarmStartReport, fine_tune_delta, grow_model
from repro.kg.graph import KGDataset
from repro.obs import registry as obs_registry
from repro.obs.trace import trace_scope
from repro.training.trainer import TrainingConfig


@dataclass
class IngestOutcome:
    """Everything one :func:`ingest_delta` call produced."""

    dataset: KGDataset
    stats: DeltaStats
    applied: bool
    warm: WarmStartReport | None = None
    index_update: object | None = None
    seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-compatible receipt (the dataset itself is omitted)."""
        out = {
            "applied": self.applied,
            "seconds": self.seconds,
            **self.stats.to_dict(),
        }
        if self.warm is not None:
            out["warm"] = self.warm.to_dict()
        if self.index_update is not None:
            out["index"] = self.index_update.to_dict()
        return out


def ingest_delta(
    model,
    dataset: KGDataset,
    delta: GraphDelta,
    *,
    index=None,
    epochs: int = 2,
    batch_size: int = 256,
    learning_rate: float = 0.01,
    optimizer: str = "adam",
    num_negatives: int = 1,
    seed: int = 0,
    drift_threshold: float = 0.5,
    grow_initializer: str = "unit_normalized",
) -> IngestOutcome:
    """Apply *delta* end to end; returns the successor dataset + reports.

    *model* and *index* are updated in place: the ``ingest`` CLI owns
    its freshly loaded model, and the serving daemon passes a private
    copy of the deployed one.  ``epochs=0`` grows the tables but skips
    fine-tuning.  *index*, when given, is maintained through its
    ``update_entities`` hook (the IVF re-fold/re-assign path with
    drift-triggered rebuild) or, for index kinds without one,
    invalidated so it resyncs lazily.  An empty delta is a committed
    no-op: the same dataset object comes back, the model and index are
    untouched.
    """
    start = time.perf_counter()
    with trace_scope(
        "ingest.delta", adds=len(delta.add_triples), deletes=len(delta.delete_triples)
    ):
        new_dataset, stats = apply_delta(dataset, delta)
        if new_dataset is dataset:
            obs_registry.inc("ingest.noop_deltas")
            return IngestOutcome(
                dataset,
                _empty_stats(),
                applied=False,
                seconds=time.perf_counter() - start,
            )
        grew = grow_model(
            model,
            new_dataset.num_entities,
            new_dataset.num_relations,
            seed=seed,
            initializer=grow_initializer,
        )
        warm = WarmStartReport()
        if epochs > 0:
            config = TrainingConfig(
                epochs=epochs,
                batch_size=batch_size,
                learning_rate=learning_rate,
                optimizer=optimizer,
                num_negatives=num_negatives,
                seed=seed,
                validate_every=10**9,
                patience=10**9,
            )
            with trace_scope("ingest.fine_tune", epochs=epochs):
                warm = fine_tune_delta(
                    model, new_dataset, stats.touched_entities, config
                )
        warm = replace(warm, grew_entities=grew[0], grew_relations=grew[1])
        index_update = None
        if index is not None:
            with trace_scope("ingest.index_update"):
                if hasattr(index, "update_entities"):
                    index_update = index.update_entities(
                        stats.touched_entities, drift_threshold=drift_threshold
                    )
                else:
                    index.invalidate()
    elapsed = time.perf_counter() - start
    obs_registry.inc("ingest.deltas_applied")
    obs_registry.inc("ingest.triples_added", stats.num_added)
    obs_registry.inc("ingest.triples_deleted", stats.num_deleted)
    obs_registry.observe("ingest.delta_seconds", elapsed)
    return IngestOutcome(
        dataset=new_dataset,
        stats=stats,
        applied=True,
        warm=warm,
        index_update=index_update,
        seconds=elapsed,
    )
