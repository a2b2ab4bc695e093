"""Worker-side determinism: same seed + same shard plan ⇒ same everything.

The satellite contract: for ``workers`` in {0, 1, 4}, sharded evaluation
must produce identical merged metrics and ``sweep`` must write identical
run-dir trees.  Multiprocessing works regardless of core count (workers
time-share on small machines), so these tests run everywhere — only
wall-clock *speedup* assertions belong behind a core-count guard.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_model
from repro.core.weights import PRESETS
from repro.eval.evaluator import LinkPredictionEvaluator
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.sweep import sweep
from repro.training.trainer import Trainer, TrainingConfig

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (0, 1, 4)


@pytest.fixture(scope="module")
def trained_model(tiny_dataset):
    model = make_model(
        PRESETS.get("cph"),
        tiny_dataset.num_entities,
        tiny_dataset.num_relations,
        total_dim=16,
        rng=np.random.default_rng(11),
    )
    Trainer(
        tiny_dataset, TrainingConfig(epochs=2, batch_size=256, seed=3, verbose=False)
    ).train(model)
    return model


def test_metrics_identical_across_worker_counts(tiny_dataset, trained_model):
    results = [
        LinkPredictionEvaluator(
            tiny_dataset, workers=workers, batch_size=32
        ).evaluate(trained_model, "test")
        for workers in WORKER_COUNTS
    ]
    reference = results[0]
    for result in results[1:]:
        for field in ("overall", "tail_side", "head_side"):
            got, want = getattr(result, field), getattr(reference, field)
            assert got.mrr == want.mrr
            assert got.mr == want.mr
            assert got.hits == want.hits
            assert got.num_ranks == want.num_ranks


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_sweep_run_dir_trees_identical_across_worker_counts(tmp_path):
    base = RunConfig(
        dataset=DatasetSection(
            params={"num_entities": 80, "num_clusters": 6, "num_domains": 3, "seed": 1}
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=1, batch_size=256),
        seed=0,
    )
    grid = {"model.name": ["distmult", "cph"]}
    trees = {}
    for workers in WORKER_COUNTS:
        root = tmp_path / f"workers{workers}"
        runs = sweep(base, grid, seeds=[0], run_root=root, workers=workers)
        assert all(run.ok for run in runs)
        trees[workers] = _tree_bytes(root)
    reference = trees[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        tree = trees[workers]
        assert set(tree) == set(reference)
        for name, blob in reference.items():
            assert tree[name] == blob, f"{name} differs between workers=0 and workers={workers}"
    # The trees contain the full artifact set, not just status stubs.
    names = set(reference)
    assert any(name.endswith("config.json") for name in names)
    assert any(name.endswith("entity_embeddings.npy") for name in names)
    assert any(name.endswith("metrics.json") for name in names)
    assert any(name.endswith("status.json") for name in names)


def test_seeded_children_differ_but_reproduce(tmp_path):
    """Different seeds → different results; same seed → same bytes."""
    base = RunConfig(
        dataset=DatasetSection(
            params={"num_entities": 80, "num_clusters": 6, "num_domains": 3, "seed": 1}
        ),
        model=ModelSection(name="distmult", total_dim=8),
        training=TrainingSection(epochs=1, batch_size=256),
        seed=0,
    )
    runs = sweep(base, {}, seeds=[0, 1], workers=2)
    assert runs[0].config.seed == 0 and runs[1].config.seed == 1
    assert runs[0].test_metrics.mrr != runs[1].test_metrics.mrr
    again = sweep(base, {}, seeds=[0, 1], workers=2)
    for a, b in zip(runs, again):
        assert a.test_metrics.mrr == b.test_metrics.mrr


def test_parallel_eval_inside_pipeline_matches_serial(tmp_path):
    """A RunConfig with a parallel section records the same metrics.json."""
    common = dict(
        dataset=DatasetSection(
            params={"num_entities": 80, "num_clusters": 6, "num_domains": 3, "seed": 1}
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=1, batch_size=256),
        seed=0,
    )
    from repro.pipeline.config import ParallelSection
    from repro.pipeline.runner import run_pipeline

    serial = run_pipeline(RunConfig(**common), run_dir=tmp_path / "serial")
    parallel = run_pipeline(
        RunConfig(**common, parallel=ParallelSection(eval_workers=2)),
        run_dir=tmp_path / "parallel",
    )
    assert serial.test_metrics.mrr == parallel.test_metrics.mrr
    assert serial.test_metrics.hits == parallel.test_metrics.hits
    serial_metrics = json.loads((tmp_path / "serial" / "metrics.json").read_text())
    parallel_metrics = json.loads((tmp_path / "parallel" / "metrics.json").read_text())
    assert serial_metrics == parallel_metrics
