"""Ablation B: number of negative samples per positive.

The paper fixes 1 negative "because, although using more negative
samples is beneficial for all models, it is also more expensive and not
necessary for this comparative analysis" (§5.3).  This ablation verifies
both halves of that sentence: more negatives help (or at least do not
hurt) ComplEx, and the 1-negative comparison already separates the
models.
"""

from __future__ import annotations

import numpy as np

from repro.core.models import make_complex, make_cp
from repro.paper_tables import format_table
from repro.pipeline.runner import train_and_evaluate
from benchmarks.conftest import is_fast, make_settings, publish_table

NEGATIVE_COUNTS = (1, 2, 4)


def run_sweep(dataset, base_settings):
    rows = []
    for offset, k in enumerate(NEGATIVE_COUNTS):
        config = make_settings({
            "training.num_negatives": k,
            "model.seed_offset": 500 + offset,
            "label": f"ComplEx negatives={k}",
        })
        model = make_complex(
            dataset.num_entities, dataset.num_relations, config.model.total_dim,
            np.random.default_rng(config.model_init_seed),
            regularization=config.model.regularization,
        )
        rows.append(train_and_evaluate(config, dataset, model))
    # The separation check at 1 negative: CP must remain far below.
    config = make_settings({
        "training.num_negatives": 1, "model.seed_offset": 550, "label": "CP negatives=1",
    })
    cp = make_cp(
        dataset.num_entities, dataset.num_relations, config.model.total_dim,
        np.random.default_rng(config.model_init_seed),
        regularization=config.model.regularization,
    )
    rows.append(train_and_evaluate(config, dataset, cp))
    return rows


def test_ablation_negative_samples(benchmark, dataset, settings):
    rows = benchmark.pedantic(run_sweep, args=(dataset, settings), rounds=1, iterations=1)
    table = format_table("Ablation B: negative samples per positive", rows)
    publish_table("ablation_negatives", table)

    if is_fast():
        return  # smoke mode: tables only, shape assertions need full training

    one_negative = rows[0].test_metrics.mrr
    four_negatives = rows[2].test_metrics.mrr
    assert four_negatives > 0.9 * one_negative, "more negatives must not collapse quality"
    assert rows[3].test_metrics.mrr < 0.5 * one_negative, "1 negative already separates CP"
