"""Approximate-retrieval benchmark: recall@10 vs speedup over ``nprobe``.

Trains a paper model on a *scaled* synthetic graph (the
``SyntheticKGConfig.scale`` knob), builds the IVF index of
:mod:`repro.index.ivf` over it, and sweeps the probe budget: for each
``nprobe`` the bench measures

* **recall@10** of the index-served top-k against the exact full-sweep
  ``LinkPredictor`` answers,
* the **probed fraction** (entities exactly scored per query / N — the
  quantity the sub-linear claim is about) and its inverse, the
  **scored reduction**, and
* the wall-clock **speedup** of the index path over the exact path.

Results go to ``BENCH_index.json`` at the repository root (schema in
``benchmarks/README.md``).  The acceptance target — some operating point
with recall@10 ≥ 0.95 while scoring ≥ 5x fewer entities — is asserted
both by the full-scale slow run and by the tier-1 smoke run
(``run_benchmark(fast=True)``, wired into ``scripts/ci.sh``).

Run modes mirror the other benches:

* ``pytest benchmarks/bench_index_recall.py`` — full scale (slow);
* ``python benchmarks/bench_index_recall.py [--fast]`` — prints the
  curve table and, at full scale, writes the JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.index.ivf import IVFIndex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor
from repro.training.trainer import Trainer, TrainingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # run standalone
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import bench_json_path  # noqa: E402

DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_index.json"

#: Acceptance targets asserted by the smoke and slow tests.
RECALL_TARGET = 0.95
REDUCTION_TARGET = 5.0
TOP_K = 10

#: Full scale: the paper-scale synthetic config scaled 16x (24k entities)
#: — big enough that cell geometry resembles the million-entity regime,
#: small enough to train in minutes.  Fast scale (the tier-1 smoke run)
#: scales to 4k entities with an aggressive learning rate: the index
#: needs a *converged* embedding geometry, not paper-grade MRR, so a
#: short hot-lr run buys the cluster structure at a fraction of the
#: epochs.
FULL_SCALE = dict(
    scale=16.0, total_dim=16, epochs=150, batch_size=4096, num_negatives=4,
    learning_rate=0.05, nlist=None, spill=2, queries=256,
    nprobe_fractions=(0.025, 0.05, 0.075, 0.1, 0.125, 0.2),
)
FAST_SCALE = dict(
    scale=8 / 3, total_dim=16, epochs=100, batch_size=2048, num_negatives=4,
    learning_rate=0.08, nlist=None, spill=2, queries=160,
    nprobe_fractions=(0.08, 0.1, 0.125, 0.15),
)


def _build_trained_model(dataset, scale_config: dict):
    model = make_complex(
        dataset.num_entities,
        dataset.num_relations,
        scale_config["total_dim"],
        np.random.default_rng(7),
    )
    config = TrainingConfig(
        epochs=scale_config["epochs"],
        batch_size=scale_config["batch_size"],
        num_negatives=scale_config["num_negatives"],
        learning_rate=scale_config["learning_rate"],
        validate_every=10**9,
        patience=10**9,
        seed=13,
    )
    Trainer(dataset, config).train(model)
    return model


def _time_batch(fn, repeats: int = 3) -> float:
    fn()  # warm folded tensors / partitions
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


def run_benchmark(
    fast: bool = False,
    json_path: Path | str | None = None,
    scale: float | None = None,
) -> dict:
    """Sweep ``nprobe`` and record the recall/speedup curve.

    *scale* overrides the preset entity-count scale (the same knob
    ``bench_memory.py`` pushes to ~1M entities), so the recall curve can
    be traced along the scale axis: ``--scale 66.7`` benches the same
    geometry at 100k entities, ``--scale 667`` at 1M.
    """
    scale_config = dict(FAST_SCALE if fast else FULL_SCALE)
    if scale is not None:
        scale_config["scale"] = float(scale)
    started = time.perf_counter()
    dataset = generate_synthetic_kg(SyntheticKGConfig(seed=3, scale=scale_config["scale"]))
    generate_seconds = time.perf_counter() - started

    started = time.perf_counter()
    model = _build_trained_model(dataset, scale_config)
    train_seconds = time.perf_counter() - started

    num_queries = min(scale_config["queries"], len(dataset.test))
    heads = dataset.test.heads[:num_queries]
    relations = dataset.test.relations[:num_queries]

    exact = LinkPredictor(model, dataset)
    exact_seconds = _time_batch(lambda: exact.top_k(heads, relations, side="tail", k=TOP_K))
    exact_ids = exact.top_k(heads, relations, side="tail", k=TOP_K).ids

    index = IVFIndex(
        model,
        nlist=scale_config["nlist"],
        spill=scale_config["spill"],
        seed=0,
    )
    started = time.perf_counter()
    index.build(relations=np.unique(relations), sides=("tail",))
    build_seconds = time.perf_counter() - started

    curve = []
    for fraction in scale_config["nprobe_fractions"]:
        nprobe = max(1, min(index.nlist, int(round(fraction * index.nlist))))
        index.nprobe = nprobe
        predictor = LinkPredictor(model, dataset, index=index)
        index_seconds = _time_batch(
            lambda: predictor.top_k(heads, relations, side="tail", k=TOP_K)
        )
        result = predictor.top_k(heads, relations, side="tail", k=TOP_K)
        recall = float(
            np.mean(
                [
                    np.intersect1d(approx[approx >= 0], truth).size / TOP_K
                    for approx, truth in zip(result.ids, exact_ids)
                ]
            )
        )
        probed = predictor.index_stats_dict()["probed_fraction"]
        curve.append(
            {
                "nprobe": nprobe,
                "recall_at_10": recall,
                "probed_fraction": probed,
                "scored_reduction": (1.0 / probed) if probed else float("inf"),
                "batch_seconds": index_seconds,
                "speedup_vs_exact": exact_seconds / index_seconds,
            }
        )

    passing = [
        point
        for point in curve
        if point["recall_at_10"] >= RECALL_TARGET
        and point["scored_reduction"] >= REDUCTION_TARGET
    ]
    best = max(passing, key=lambda point: point["scored_reduction"], default=None)
    results = {
        "benchmark": "IVF index recall@10 vs scored-entity reduction over nprobe",
        "dataset": {
            "name": dataset.name,
            "scale": scale_config["scale"],
            "num_entities": dataset.num_entities,
            "num_relations": dataset.num_relations,
            "num_train_triples": len(dataset.train),
            "generate_seconds": generate_seconds,
        },
        "config": {
            "fast": fast,
            "model": "complex",
            "total_dim": scale_config["total_dim"],
            "epochs": scale_config["epochs"],
            "learning_rate": scale_config["learning_rate"],
            "train_seconds": train_seconds,
            "nlist": index.nlist,
            "spill": index.spill,
            "queries": num_queries,
            "top_k": TOP_K,
            "index_build_seconds": build_seconds,
            "exact_batch_seconds": exact_seconds,
            "recall_target": RECALL_TARGET,
            "reduction_target": REDUCTION_TARGET,
        },
        "curve": curve,
        "acceptance": {
            "achieved": best is not None,
            "best_point": best,
        },
    }
    json_path = bench_json_path(json_path, DEFAULT_JSON_PATH, fast)
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def format_results(results: dict) -> str:
    """Human-readable curve table of the JSON payload."""
    dataset = results["dataset"]
    config = results["config"]
    lines = [
        f"IVF recall/speedup on {dataset['name']} "
        f"(N={dataset['num_entities']:,}, nlist={config['nlist']}, "
        f"spill={config['spill']}, {config['queries']} queries)",
        f"{'nprobe':>7} {'recall@10':>10} {'probed':>8} {'reduction':>10} {'speedup':>8}",
    ]
    for point in results["curve"]:
        lines.append(
            f"{point['nprobe']:>7} {point['recall_at_10']:>10.3f} "
            f"{point['probed_fraction']:>8.3f} {point['scored_reduction']:>9.1f}x "
            f"{point['speedup_vs_exact']:>7.2f}x"
        )
    best = results["acceptance"]["best_point"]
    if best is not None:
        lines.append(
            f"target met: recall {best['recall_at_10']:.3f} at "
            f"{best['scored_reduction']:.1f}x fewer entities scored "
            f"(nprobe={best['nprobe']})"
        )
    else:
        lines.append("target NOT met on this configuration")
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.index
def test_index_recall_speedup():
    from benchmarks.conftest import is_fast, publish_table

    results = run_benchmark(fast=is_fast())
    publish_table("index_recall", format_results(results))
    assert results["acceptance"]["achieved"], (
        f"no nprobe reached recall@10 >= {RECALL_TARGET} with >= "
        f"{REDUCTION_TARGET}x fewer entities scored: {results['curve']}"
    )


if __name__ == "__main__":
    fast_flag = "--fast" in sys.argv
    scale_arg = None
    if "--scale" in sys.argv:
        scale_arg = float(sys.argv[sys.argv.index("--scale") + 1])
    print(format_results(run_benchmark(fast=fast_flag, scale=scale_arg)))
    if not fast_flag:
        print(f"\nwrote {DEFAULT_JSON_PATH}")
