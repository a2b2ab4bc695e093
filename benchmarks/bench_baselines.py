"""Baseline table: the paper's §2 model categories on one dataset.

Not a numbered table in the paper, but §2 motivates the focus on
trilinear models by contrasting the three categories; this bench makes
that comparison concrete: translation-based (TransE), bilinear
full-matrix (RESCAL), neural (ER-MLP), and the trilinear family's best
(ComplEx).
"""

from __future__ import annotations

import numpy as np

from repro.baselines import ERMLP, RESCAL, TransE
from repro.core.models import make_complex
from repro.paper_tables import format_table
from repro.pipeline.runner import train_and_evaluate
from repro.pipeline.sweep import apply_overrides
from benchmarks.conftest import is_fast, publish_table


def run_baselines(dataset, settings):
    def row(label, seed_offset, overrides=None):
        config = apply_overrides(
            settings, {"label": label, "model.seed_offset": seed_offset, **(overrides or {})}
        )
        return config, np.random.default_rng(config.model_init_seed)

    dim = settings.model.total_dim
    rows = []
    config, rng = row("ComplEx (trilinear)", 300)
    complex_model = make_complex(
        dataset.num_entities, dataset.num_relations, dim, rng,
        regularization=config.model.regularization,
    )
    rows.append(train_and_evaluate(config, dataset, complex_model))

    config, rng = row("TransE (translation)", 301)
    transe = TransE(dataset.num_entities, dataset.num_relations, dim, rng)
    rows.append(train_and_evaluate(config, dataset, transe))

    config, rng = row("RESCAL (bilinear)", 302)
    rescal = RESCAL(dataset.num_entities, dataset.num_relations, dim // 2, rng,
                    regularization=config.model.regularization)
    rows.append(train_and_evaluate(config, dataset, rescal))

    # ER-MLP's 1-vs-all scoring is O(entities) forward passes per query;
    # train it with a shorter schedule to keep the bench tractable.
    config, rng = row("ER-MLP (neural)", 303, {
        "training.epochs": min(settings.training.epochs, 60),
        "training.learning_rate": 0.01,
        "model.regularization": 0.0,
        "training.validate_every": 10_000,
        "training.patience": 10_000,
    })
    er_mlp = ERMLP(dataset.num_entities, dataset.num_relations, dim // 2, rng)
    rows.append(train_and_evaluate(config, dataset, er_mlp))
    return rows


def test_baseline_categories(benchmark, dataset, settings):
    rows = benchmark.pedantic(
        run_baselines, args=(dataset, settings), rounds=1, iterations=1
    )
    table = format_table(
        f"Baseline categories (paper section 2) on {dataset.name}", rows
    )
    publish_table("baselines", table)

    if is_fast():
        return  # smoke mode: tables only, shape assertions need full training

    by_label = {row.config.label.split(" ")[0]: row.test_metrics.mrr for row in rows}
    # §2's motivation: the trilinear family leads on this kind of data.
    assert by_label["ComplEx"] >= by_label["TransE"]
    assert by_label["ComplEx"] >= by_label["ER-MLP"]
