"""Shared fixtures for the paper-table benchmarks.

Every benchmark trains on the same synthetic WN18-like dataset (fixed
seed) and prints its table in the paper's layout; a full run also writes
it to ``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.  Set the environment variable ``REPRO_BENCH_FAST=1`` to run the
benches at toy scale (useful for CI smoke runs); smoke runs print their
tables but write nothing.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import pytest

from repro.paper_tables import TABLE_DEFAULTS
from repro.pipeline.config import RunConfig
from repro.pipeline.sweep import apply_overrides

RESULTS_DIR = Path(__file__).parent / "results"

#: The toy scale REPRO_BENCH_FAST=1 runs at, as dotted config overrides.
FAST_OVERRIDES = {
    "dataset.params.num_entities": 150,
    "dataset.params.num_clusters": 10,
    "dataset.params.num_domains": 4,
    "model.total_dim": 16,
    "training.epochs": 40,
    "training.batch_size": 512,
}


def is_fast() -> bool:
    """Whether the benches run in smoke mode (assertions are skipped)."""
    return bool(os.environ.get("REPRO_BENCH_FAST"))


def make_settings(overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Benchmark-scale base config (the paper tables' defaults), or toy
    scale under REPRO_BENCH_FAST=1, with dotted-path *overrides* applied."""
    return apply_overrides(
        TABLE_DEFAULTS, {**(FAST_OVERRIDES if is_fast() else {}), **(overrides or {})}
    )


@pytest.fixture(scope="session")
def settings() -> RunConfig:
    return make_settings()


@pytest.fixture(scope="session")
def dataset(settings):
    return settings.dataset.build()


def publish_table(name: str, table: str) -> None:
    """Print a results table; a full run also persists it under
    benchmarks/results/."""
    print("\n" + table + "\n")
    if is_fast():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
