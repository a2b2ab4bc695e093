"""Training-throughput benchmark: compiled ω kernels vs the dense oracle.

For every model class (DistMult, ComplEx, CP, CPh, quaternion, learned-ω)
this bench times a train step on the synthetic FB15k-flavoured dataset
twice — once through the model's own compiled-kernel fused hot path and
once through the dense-einsum reference engine
(``tests/core/dense_reference.py``, the pre-kernel implementation kept
as the correctness oracle) — and verifies that one step of each engine
from the same initialisation produces identical scores and parameters
to 1e-10.

Results go to ``BENCH_training.json`` at the repository root (see
``benchmarks/README.md`` for the schema).  Run modes:

* ``pytest benchmarks/bench_training_throughput.py`` — full scale; asserts
  the ≥3x speedup target on the quaternion and CPh configs.
* ``REPRO_BENCH_FAST=1`` or ``run_benchmark(fast=True)`` — toy scale for
  smoke runs (also wired into the tier-1 suite); no throughput
  assertions, equivalence is still checked.
* ``python benchmarks/bench_training_throughput.py`` — full scale, prints
  the table.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import (
    make_complex,
    make_cp,
    make_cph,
    make_distmult,
    make_learned_weight_model,
    make_quaternion,
)
from repro.kg.synthetic_fb import SyntheticFBConfig, generate_synthetic_fb15k
from repro.nn.optimizers import make_optimizer
from repro.training.negatives import UniformNegativeSampler

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # run standalone: the oracle lives under tests/
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import bench_json_path  # noqa: E402
from tests.core.dense_reference import DenseReference  # noqa: E402

DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_training.json"

#: Model classes benchmarked, with their factory functions.
MODEL_BUILDERS = {
    "distmult": make_distmult,
    "complex": make_complex,
    "cp": make_cp,
    "cph": make_cph,
    "quaternion": make_quaternion,
    "learned": make_learned_weight_model,
}

#: The acceptance target: fused kernel step ≥ 3x the dense reference on
#: these configs.
SPEEDUP_TARGET = 3.0
SPEEDUP_TARGET_MODELS = ("quaternion", "cph")

#: Full scale follows the paper's setup: the default synthetic-FB15k
#: entity count, parameter budget 400 (§5.3) and a 2^12 batch from the
#: paper's batch-size grid.
FULL_SCALE = dict(
    num_entities=1200, total_dim=400, batch_size=4096, warmup=2, repeats=9
)
FAST_SCALE = dict(num_entities=200, total_dim=32, batch_size=64, warmup=1, repeats=3)


def _build_pair(name: str, num_entities: int, num_relations: int, total_dim: int):
    """The same model twice from one seed: one trained by its kernel, one
    wrapped in the dense oracle (its parameters are ``.model``'s)."""
    builder = MODEL_BUILDERS[name]
    kernel_model = builder(
        num_entities, num_relations, total_dim, np.random.default_rng(17)
    )
    dense = DenseReference(
        builder(num_entities, num_relations, total_dim, np.random.default_rng(17))
    )
    return kernel_model, dense


def _sample_batch(dataset, batch_size: int, seed: int):
    """A fixed positive batch from the train split plus uniform negatives."""
    rng = np.random.default_rng(seed)
    train = dataset.train.array
    rows = rng.integers(0, len(train), size=min(batch_size, len(train)))
    positives = train[rows]
    sampler = UniformNegativeSampler(dataset.num_entities, num_negatives=1)
    negatives = sampler.corrupt(positives, rng)
    return positives, negatives


def _median_step_seconds(engine, positives, negatives, warmup: int, repeats: int) -> float:
    """Median ``engine.train_step`` wall-clock (a model or a DenseReference)."""
    optimizer = make_optimizer("adam", 1e-3)
    for _ in range(warmup):
        engine.train_step(positives, negatives, optimizer)
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        engine.train_step(positives, negatives, optimizer)
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


def _equivalence_deltas(name: str, num_entities: int, num_relations: int,
                        total_dim: int, positives, negatives) -> dict:
    """Max |kernel − dense| after identical steps from identical inits."""
    kernel_model, dense = _build_pair(name, num_entities, num_relations, total_dim)
    kernel_opt = make_optimizer("adam", 1e-3)
    dense_opt = make_optimizer("adam", 1e-3)
    score_delta = float(
        np.max(
            np.abs(
                kernel_model.score_triples(positives[:, 0], positives[:, 1], positives[:, 2])
                - dense.score_triples(positives[:, 0], positives[:, 1], positives[:, 2])
            )
        )
    )
    loss_delta = 0.0
    for _ in range(2):
        loss_kernel = kernel_model.train_step(positives, negatives, kernel_opt)
        loss_dense = dense.train_step(positives, negatives, dense_opt)
        loss_delta = max(loss_delta, abs(loss_kernel - loss_dense))
    dense_model = dense.model
    param_delta = max(
        float(np.max(np.abs(kernel_model.entity_embeddings - dense_model.entity_embeddings))),
        float(np.max(np.abs(kernel_model.relation_embeddings - dense_model.relation_embeddings))),
    )
    return {
        "max_score_delta": score_delta,
        "max_loss_delta": float(loss_delta),
        "max_param_delta_after_2_steps": param_delta,
    }


def run_benchmark(fast: bool = False, json_path: Path | str | None = None) -> dict:
    """Time every model class on both engines; optionally write the JSON."""
    scale = FAST_SCALE if fast else FULL_SCALE
    dataset = generate_synthetic_fb15k(
        SyntheticFBConfig(num_entities=scale["num_entities"], seed=3)
    )
    positives, negatives = _sample_batch(dataset, scale["batch_size"], seed=11)
    triples_per_step = len(positives) + len(negatives)

    models = {}
    for name in MODEL_BUILDERS:
        kernel_model, dense = _build_pair(
            name, dataset.num_entities, dataset.num_relations, scale["total_dim"]
        )
        kernel_seconds = _median_step_seconds(
            kernel_model, positives, negatives, scale["warmup"], scale["repeats"]
        )
        dense_seconds = _median_step_seconds(
            dense, positives, negatives, scale["warmup"], scale["repeats"]
        )
        models[name] = {
            "kernel_mode": kernel_model.kernel.mode,
            "omega_density": kernel_model.kernel.density,
            "kernel_triples_per_sec": triples_per_step / kernel_seconds,
            "dense_triples_per_sec": triples_per_step / dense_seconds,
            "speedup": dense_seconds / kernel_seconds,
            **_equivalence_deltas(
                name,
                dataset.num_entities,
                dataset.num_relations,
                scale["total_dim"],
                positives,
                negatives,
            ),
        }

    results = {
        "benchmark": "train_step throughput, compiled kernel vs dense-einsum reference",
        "dataset": {
            "name": dataset.name,
            "num_entities": dataset.num_entities,
            "num_relations": dataset.num_relations,
            "num_train_triples": len(dataset.train),
        },
        "config": {
            "fast": fast,
            "total_dim": scale["total_dim"],
            "batch_size": len(positives),
            "triples_per_step": triples_per_step,
            "optimizer": "adam",
            "speedup_target": SPEEDUP_TARGET,
            "speedup_target_models": list(SPEEDUP_TARGET_MODELS),
        },
        "models": models,
    }
    json_path = bench_json_path(json_path, DEFAULT_JSON_PATH, fast)
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def format_results(results: dict) -> str:
    """Human-readable table of the JSON payload."""
    lines = [
        f"train_step throughput on {results['dataset']['name']} "
        f"(batch {results['config']['batch_size']}, total_dim {results['config']['total_dim']})",
        f"{'model':<12} {'mode':<7} {'kernel tr/s':>12} {'dense tr/s':>12} "
        f"{'speedup':>8} {'max |Δparam|':>13}",
    ]
    for name, row in results["models"].items():
        lines.append(
            f"{name:<12} {row['kernel_mode']:<7} {row['kernel_triples_per_sec']:>12,.0f} "
            f"{row['dense_triples_per_sec']:>12,.0f} {row['speedup']:>7.2f}x "
            f"{row['max_param_delta_after_2_steps']:>13.2e}"
        )
    return "\n".join(lines)


@pytest.mark.slow
def test_training_throughput():
    from benchmarks.conftest import is_fast, publish_table

    results = run_benchmark(fast=is_fast())
    publish_table("training_throughput", format_results(results))

    for row in results["models"].values():
        assert row["max_score_delta"] < 1e-10
        assert row["max_param_delta_after_2_steps"] < 1e-10
    if is_fast():
        return  # smoke mode: equivalence only, no timing assertions
    for name in SPEEDUP_TARGET_MODELS:
        assert results["models"][name]["speedup"] >= SPEEDUP_TARGET, (
            f"{name}: fused kernel step only "
            f"{results['models'][name]['speedup']:.2f}x the dense baseline"
        )


if __name__ == "__main__":
    fast_flag = "--fast" in sys.argv
    print(format_results(run_benchmark(fast=fast_flag)))
    if not fast_flag:
        print(f"\nwrote {DEFAULT_JSON_PATH}")
