"""Programmatic reproduction of the paper's evaluation tables.

Each ``run_tableN`` function trains every row of the corresponding table
from one base :class:`~repro.pipeline.config.RunConfig` and returns the
rows' :class:`~repro.pipeline.runner.RunResult` objects; ``format_table``
renders them in the paper's layout.  The pytest-benchmark files under
``benchmarks/`` wrap these functions with timing and shape assertions;
the CLI exposes them as ``repro-kge table N``.

A row is the base config with three things replaced: the model (a name
resolved through the pipeline registries — ω preset keys double as
model names — plus a per-row ``seed_offset`` and options, keeping the
base ``total_dim`` and ``regularization``), the ``label``, and
``evaluation.evaluate_train``.  Every other field of the base — the
evaluation split, storage dtype, telemetry, parallel evaluation — reaches
:func:`~repro.pipeline.runner.run_pipeline` unchanged.
:data:`TABLE_DEFAULTS` is the base the tables use unless given another.
Pass ``run_root`` to any runner to persist each row as a reloadable run
directory.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.errors import ConfigError
from repro.eval.metrics import RankingMetrics
from repro.kg.graph import KGDataset
from repro.kg.synthetic import SyntheticKGConfig
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.runner import RunResult, run_pipeline

#: The scaled-down analogue of the paper's §5.3 setup (WN18, embedding
#: budget 400, Adam, 1 negative, validation every 50 epochs with 100
#: epochs patience): 800 synthetic entities, ``total_dim`` 64, 300 epochs.
TABLE_DEFAULTS = RunConfig(
    dataset=DatasetSection(
        generator="synthetic_wn18",
        params=dataclasses.asdict(
            SyntheticKGConfig(num_entities=800, num_clusters=40, num_domains=8, seed=7)
        ),
    ),
    model=ModelSection(total_dim=64),
    training=TrainingSection(epochs=300),
)

#: Table 2 rows: (label, model/preset registry key, evaluate-train-too).
TABLE2_ROWS: tuple[tuple[str, str, bool], ...] = (
    ("DistMult (1, 0, 0, 0, 0, 0, 0, 0)", "distmult_n1", True),
    ("ComplEx (1, 0, 0, 1, 0, -1, 1, 0)", "complex", True),
    ("CP (0, 0, 1, 0, 0, 0, 0, 0)", "cp", True),
    ("CPh (0, 0, 1, 0, 0, 1, 0, 0)", "cph", True),
    ("Bad example 1 (0, 0, 20, 0, 0, 1, 0, 0)", "bad_example_1", False),
    ("Bad example 2 (0, 0, 1, 1, 1, 1, 0, 0)", "bad_example_2", False),
    ("Good example 1 (0, 0, 20, 1, 1, 20, 0, 0)", "good_example_1", False),
    ("Good example 2 (1, 1, -1, 1, 1, -1, 1, 1)", "good_example_2", False),
)

#: Table 3 rows: (label, transform-or-None-for-fixed-uniform, sparse).
TABLE3_ROWS: tuple[tuple[str, str | None, bool], ...] = (
    ("Uniform weight (1, 1, 1, 1, 1, 1, 1, 1)", None, False),
    ("Auto weight no restriction", "identity", False),
    ("Auto weight in (-1, 1) by tanh", "tanh", False),
    ("Auto weight in (0, 1) by sigmoid", "sigmoid", False),
    ("Auto weight in (0, 1) by softmax", "softmax", False),
    ("Auto weight no restriction, sparse", "identity", True),
    ("Auto weight in (-1, 1) by tanh, sparse", "tanh", True),
    ("Auto weight in (0, 1) by sigmoid, sparse", "sigmoid", True),
    ("Auto weight in (0, 1) by softmax, sparse", "softmax", True),
)


def _row_dir(run_root: str | Path | None, index: int, label: str) -> str | None:
    """Per-row run directory under *run_root* (or None to skip artifacts)."""
    if run_root is None:
        return None
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")[:48]
    return str(Path(run_root) / f"row{index:02d}-{slug}")


def _run_rows(
    base: RunConfig,
    rows: list[tuple[str, str, int, bool, dict]],
    dataset: KGDataset | None,
    run_root: str | Path | None,
) -> list[RunResult]:
    """Run ``(label, model name, seed_offset, evaluate_train, options)``
    rows as *base* with those fields replaced, on one shared dataset."""
    if dataset is None:
        dataset = base.dataset.build()
    results = []
    for index, (label, name, seed_offset, evaluate_train, options) in enumerate(rows):
        config = dataclasses.replace(
            base,
            model=ModelSection(
                name=name,
                total_dim=base.model.total_dim,
                regularization=base.model.regularization,
                seed_offset=seed_offset,
                options=options,
            ),
            label=label,
            evaluation=dataclasses.replace(base.evaluation, evaluate_train=evaluate_train),
        )
        results.append(
            run_pipeline(config, dataset=dataset, run_dir=_row_dir(run_root, index, label))
        )
    return results


def run_table2(
    base: RunConfig,
    dataset: KGDataset | None = None,
    run_root: str | Path | None = None,
) -> list[RunResult]:
    """Train and evaluate every Table 2 row (derived ω + variants)."""
    rows = [
        (label, name, offset, with_train, {})
        for offset, (label, name, with_train) in enumerate(TABLE2_ROWS)
    ]
    return _run_rows(base, rows, dataset, run_root)


def run_table3(
    base: RunConfig,
    dataset: KGDataset | None = None,
    run_root: str | Path | None = None,
) -> list[RunResult]:
    """Train every Table 3 row: fixed uniform ω, then learned ω variants.

    A learned row's ω snapshot is ``result.model.current_weight_vector()``.
    """
    rows = []
    for offset, (label, transform, sparse) in enumerate(TABLE3_ROWS):
        if transform is None:
            rows.append((label, "uniform", 100 + offset, False, {}))
        else:
            options = {"transform": transform, "sparse": sparse}
            rows.append((label, "learned", 100 + offset, False, options))
    return _run_rows(base, rows, dataset, run_root)


def run_table4(
    base: RunConfig,
    dataset: KGDataset | None = None,
    run_root: str | Path | None = None,
) -> list[RunResult]:
    """Train the Table 4 quaternion model, then a ComplEx reference."""
    rows = [
        ("Quaternion-based four-embedding", "quaternion", 200, True, {}),
        ("ComplEx (reference)", "complex", 201, False, {}),
    ]
    return _run_rows(base, rows, dataset, run_root)


def format_table(title: str, results: list[RunResult], label_width: int = 42) -> str:
    """Render results in the layout of the paper's Tables 2-4, each row
    labelled by its ``config.label``."""
    if not results:
        raise ConfigError("cannot format an empty table")
    lines = [title, RankingMetrics.header_row(label_width=label_width)]
    lines.append("-" * len(lines[-1]))
    for result in results:
        lines.append(result.test_metrics.format_row(result.config.label, label_width))
    train_rows = [result for result in results if result.train_metrics is not None]
    if train_rows:
        lines.append("-" * len(lines[1]))
        for result in train_rows:
            lines.append(
                result.train_metrics.format_row(f"{result.config.label} on train", label_width)
            )
    return "\n".join(lines)


def format_learned_omegas(results: list[RunResult]) -> str:
    """The learned ω snapshot of every learned-ω row, one line each."""
    lines = ["learned omega snapshots:"]
    for result in results:
        if result.config.model.name == "learned":
            omega = result.model.current_weight_vector()
            values = ", ".join(f"{v:+.2f}" for v in omega.flatten())
            lines.append(f"  {result.config.label:<42} ({values})")
    return "\n".join(lines)
