"""Ablation A: embedding budget sweep at parameter parity.

The paper fixes one budget (400) and splits it across vectors (§5.3).
This ablation sweeps the budget to show (a) the ComplEx > DistMult gap is
not an artefact of one size, and (b) where returns diminish.
"""

from __future__ import annotations

import numpy as np

from repro.core.models import make_complex, make_distmult
from repro.paper_tables import format_table
from repro.pipeline.runner import train_and_evaluate
from benchmarks.conftest import is_fast, make_settings, publish_table

BUDGETS = (16, 32, 64)


def run_sweep(dataset, base_settings):
    rows = []
    for offset, budget in enumerate(BUDGETS):
        for name, factory, seed_offset in (
            ("ComplEx", make_complex, 400 + offset),
            ("DistMult", make_distmult, 450 + offset),
        ):
            config = make_settings({
                "model.total_dim": budget,
                "model.seed_offset": seed_offset,
                "label": f"{name} total_dim={budget}",
            })
            model = factory(
                dataset.num_entities, dataset.num_relations, budget,
                np.random.default_rng(config.model_init_seed),
                regularization=config.model.regularization,
            )
            rows.append(train_and_evaluate(config, dataset, model))
    return rows


def test_ablation_embedding_size(benchmark, dataset, settings):
    rows = benchmark.pedantic(run_sweep, args=(dataset, settings), rounds=1, iterations=1)
    table = format_table("Ablation A: embedding budget sweep (parameter parity)", rows)
    publish_table("ablation_embedding_size", table)

    if is_fast():
        return  # smoke mode: tables only, shape assertions need full training

    # ComplEx must beat DistMult once there is enough capacity for the
    # inverse structure (budgets >= 32); at the smallest budget both
    # models are capacity-starved and statistically tied.
    for i in range(0, len(rows), 2):
        budget = int(rows[i].config.label.rsplit("=", 1)[1])
        complex_mrr = rows[i].test_metrics.mrr
        distmult_mrr = rows[i + 1].test_metrics.mrr
        if budget >= 32:
            assert complex_mrr > distmult_mrr, rows[i].config.label
        else:
            assert complex_mrr > 0.7 * distmult_mrr, rows[i].config.label
    # Larger budgets must help ComplEx (diminishing, not inverted, returns).
    assert rows[4].test_metrics.mrr > rows[0].test_metrics.mrr
