"""Warm-start delta training: grow the tables, fine-tune touched rows only.

After a delta lands, the model's embedding tables are grown in place
(:meth:`~repro.core.interaction.MultiEmbeddingModel.grow`) and only the
*touched* entities — endpoints of added/deleted triples plus freshly
created ids — are fine-tuned.  Positives are the training triples whose
endpoints are both touched; negatives are corrupted *within* the touched
pool.  Every batch therefore gathers and scatters only touched entity
rows, so the fused trainer's row-blocked sparse optimizer updates leave
all other entity embeddings bit-identical — the property that makes
incremental ingestion cheap relative to retraining.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.interaction import MultiEmbeddingModel
from repro.errors import IngestError
from repro.kg.graph import KGDataset
from repro.nn.optimizers import make_optimizer
from repro.training.trainer import TrainingConfig


@dataclass(frozen=True)
class WarmStartReport:
    """What one warm-start pass did (growth + touched-row fine-tune)."""

    grew_entities: int = 0
    grew_relations: int = 0
    triples: int = 0
    steps: int = 0
    epochs: int = 0
    final_loss: float = 0.0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "grew_entities": self.grew_entities,
            "grew_relations": self.grew_relations,
            "triples": self.triples,
            "steps": self.steps,
            "epochs": self.epochs,
            "final_loss": self.final_loss,
            "seconds": self.seconds,
        }


def grow_model(
    model,
    num_entities: int,
    num_relations: int,
    *,
    seed: int = 0,
    initializer: str = "unit_normalized",
) -> tuple[int, int]:
    """Grow *model*'s tables to the delta-applied dataset's id spaces."""
    if not isinstance(model, MultiEmbeddingModel):
        raise IngestError(
            "warm-start ingestion requires a MultiEmbeddingModel, got "
            f"{type(model).__name__}"
        )
    rng = np.random.default_rng(seed)
    return model.grow(num_entities, num_relations, rng=rng, initializer=initializer)


def _corrupt_within(
    positives: np.ndarray,
    pool: np.ndarray,
    num_negatives: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform corruption restricted to the touched-entity *pool*.

    Same head/tail coin flip and avoid-identity resampling as
    :class:`~repro.training.negatives.UniformNegativeSampler`, but
    replacements are drawn from *pool* so negative gradients also land
    only on touched rows.
    """
    negatives = np.tile(positives, (num_negatives, 1))
    corrupt_head = rng.random(len(negatives)) < 0.5
    replacements = rng.choice(pool, size=len(negatives))
    if len(pool) > 1:
        current = np.where(corrupt_head, negatives[:, 0], negatives[:, 1])
        for _ in range(10):
            clash = replacements == current
            if not clash.any():
                break
            replacements[clash] = rng.choice(pool, size=int(clash.sum()))
    negatives[corrupt_head, 0] = replacements[corrupt_head]
    negatives[~corrupt_head, 1] = replacements[~corrupt_head]
    return negatives


def fine_tune_delta(
    model: MultiEmbeddingModel,
    dataset: KGDataset,
    touched_entities: np.ndarray,
    config: TrainingConfig,
) -> WarmStartReport:
    """Fine-tune only the touched entity rows on their induced subgraph.

    The training subset is every train triple with *both* endpoints in
    *touched_entities*; with pool-restricted negatives, the sparse fused
    update path guarantees untouched entity rows stay bit-identical.
    Relations used by those triples are updated too (they are shared
    parameters — there is no per-relation isolation to preserve).
    """
    start = time.perf_counter()
    touched = np.unique(np.asarray(touched_entities, dtype=np.int64))
    if len(touched) and (touched[0] < 0 or touched[-1] >= model.num_entities):
        raise IngestError(
            f"touched entity ids out of range [0, {model.num_entities})"
        )
    if not len(touched):
        return WarmStartReport(seconds=time.perf_counter() - start)
    rows = dataset.train.array
    mask = np.isin(rows[:, 0], touched) & np.isin(rows[:, 1], touched)
    triples = rows[mask]
    if not len(triples):
        return WarmStartReport(seconds=time.perf_counter() - start)
    rng = np.random.default_rng(config.seed)
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    loss = 0.0
    steps = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(triples))
        for lo in range(0, len(triples), config.batch_size):
            batch = triples[order[lo : lo + config.batch_size]]
            negatives = _corrupt_within(batch, touched, config.num_negatives, rng)
            loss = model.train_step(batch, negatives, optimizer)
            steps += 1
    model.release_training_buffers()
    return WarmStartReport(
        triples=int(len(triples)),
        steps=steps,
        epochs=config.epochs,
        final_loss=float(loss),
        seconds=time.perf_counter() - start,
    )
