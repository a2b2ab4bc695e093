"""Million-entity memory benchmark: mapped float32 + PQ-IVF vs float64 exact.

Trains a ComplEx model on a *scaled* synthetic graph (~1M entities at
full scale), then serves the same top-10 queries through two arms:

* **baseline** — the float64 model held privately in-process, answered
  by the exact full-sweep :class:`~repro.serving.LinkPredictor`; this is
  the paper's serving path and the memory/latency reference, and its
  answers are the recall ground truth.
* **mapped** — the checkpoint downcast to float32 (behind the
  score-equivalence gate) and saved in the memory-mapped store layout,
  per-relation folded candidate matrices materialized into a mapped
  :class:`~repro.core.memstore.MemStore`, and a product-quantized IVF
  index (ADC coarse pass, exact re-rank) persisted and reloaded in its
  memmap layout — every big table file-backed and shared, none private.

For each arm the bench records the tracked working set split into
private in-process bytes vs file-backed mapped bytes
(:func:`~repro.core.memstore.array_memory` over the model tables and
``IVFIndex.resident_arrays``), advisory ``RssAnon`` snapshots from
``/proc/self/status``, whole-batch wall time, and per-query p50/p90
latency.  Acceptance — asserted by the committed full-scale run *and*
the tier-1 smoke run — is **recall@10 ≥ 0.95** against the float64
exact answers with the private working set **≥ 5x smaller** than the
baseline's.

Results go to ``BENCH_memory.json`` at the repository root (schema in
``benchmarks/README.md``).  Run modes mirror the other benches:

* ``pytest benchmarks/bench_memory.py`` — full scale (slow);
* ``python benchmarks/bench_memory.py [--fast] [--scale X]`` — prints
  the comparison table and writes the JSON.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest

from repro.core.memstore import MemStore, array_memory
from repro.core.models import make_complex
from repro.core.serialization import load_model, save_model
from repro.index.base import load_index
from repro.index.folded_vectors import FoldedCandidateSource
from repro.index.ivf import IVFIndex
from repro.index.pq import PQConfig
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor
from repro.training.trainer import Trainer, TrainingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_memory.json"

#: Acceptance targets asserted by the smoke and slow tests.
RECALL_TARGET = 0.95
REDUCTION_TARGET = 5.0
TOP_K = 10

#: Full scale: 667x the paper-scale synthetic config — ~1.0M entities.
#: The embedding geometry only needs enough training for cluster
#: structure (the index's recall depends on it), not paper-grade MRR, so
#: a short hot-lr run suffices.  Fast scale (the tier-1 smoke run) is
#: the 4k-entity graph the index smoke also uses.
FULL_SCALE = dict(
    scale=667.0, total_dim=16, epochs=12, batch_size=8192, num_negatives=2,
    learning_rate=0.08, nlist=1024, nprobe=96, spill=2,
    pq_m=8, refine=256, pq_train_sample=200_000, kmeans_train_sample=200_000,
    relations=4, queries=256, latency_queries=64,
)
FAST_SCALE = dict(
    scale=8 / 3, total_dim=16, epochs=100, batch_size=2048, num_negatives=4,
    learning_rate=0.08, nlist=64, nprobe=12, spill=2,
    pq_m=8, refine=128, pq_train_sample=65_536, kmeans_train_sample=None,
    relations=4, queries=128, latency_queries=32,
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


def _rss_anon_kb() -> int | None:
    """Private (anonymous) resident KB of this process; None off-Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _pick_queries(dataset, scale_config: dict):
    """Test queries restricted to the most frequent relations.

    The index is built per ``(relation, side)``; benchmarking the top
    few relations keeps the build proportional while still covering the
    bulk of real query traffic (relation frequency is heavy-tailed).
    """
    counts = np.bincount(dataset.test.relations, minlength=dataset.num_relations)
    top = np.sort(np.argsort(-counts)[: scale_config["relations"]])
    mask = np.isin(dataset.test.relations, top)
    heads = dataset.test.heads[mask][: scale_config["queries"]]
    relations = dataset.test.relations[mask][: scale_config["queries"]]
    return heads, relations, top


def _time_batch(fn, repeats: int = 3) -> float:
    fn()  # warm folds / partitions / caches
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return float(np.median(timings))


def _per_query_latency_ms(predict_one, heads, relations, count: int) -> dict:
    n = min(count, len(heads))
    predict_one(heads[:1], relations[:1])  # warm
    timings = []
    for i in range(n):
        start = time.perf_counter()
        predict_one(heads[i : i + 1], relations[i : i + 1])
        timings.append((time.perf_counter() - start) * 1000.0)
    return {
        "p50_ms": float(np.percentile(timings, 50)),
        "p90_ms": float(np.percentile(timings, 90)),
        "queries": n,
    }


def _model_arrays(model) -> list[np.ndarray]:
    return [model.entity_embeddings, model.relation_embeddings, np.asarray(model.omega)]


def _tree_bytes(*roots: Path) -> int:
    return sum(
        path.stat().st_size
        for root in roots
        for path in Path(root).rglob("*")
        if path.is_file()
    )


def run_benchmark(
    fast: bool = False,
    json_path: Path | str | None = DEFAULT_JSON_PATH,
    scale: float | None = None,
) -> dict:
    """Serve the same queries through both arms and compare the bills."""
    scale_config = dict(FAST_SCALE if fast else FULL_SCALE)
    if scale is not None:
        scale_config["scale"] = float(scale)

    started = time.perf_counter()
    dataset = generate_synthetic_kg(
        SyntheticKGConfig(seed=3, scale=scale_config["scale"])
    )
    generate_seconds = time.perf_counter() - started
    heads, relations, bench_relations = _pick_queries(dataset, scale_config)

    started = time.perf_counter()
    model = _build_trained_model(dataset, scale_config)
    train_seconds = time.perf_counter() - started

    # ------------------------------------------------- baseline: exact float64
    exact = LinkPredictor(model, dataset, cache_size=0)
    exact_batch_seconds = _time_batch(
        lambda: exact.top_k(heads, relations, side="tail", k=TOP_K)
    )
    exact_ids = exact.top_k(heads, relations, side="tail", k=TOP_K).ids
    baseline_latency = _per_query_latency_ms(
        lambda h, r: exact.top_k(h, r, side="tail", k=TOP_K),
        heads,
        relations,
        scale_config["latency_queries"],
    )
    base_private, base_mapped = array_memory(_model_arrays(model))
    baseline = {
        "storage": "float64 in-process, exact full sweep",
        "tracked_in_process_bytes": base_private,
        "tracked_mapped_bytes": base_mapped,
        "batch_seconds": exact_batch_seconds,
        "latency": baseline_latency,
        "rss_anon_kb": _rss_anon_kb(),
    }

    # --------------------------------------- write every mapped-scale artifact
    workdir = TemporaryDirectory(prefix="bench_memory_")
    root = Path(workdir.name)
    started = time.perf_counter()
    save_model(model, root / "ckpt", dtype="float32")
    mapped_model = load_model(root / "ckpt")
    ckpt_meta = json.loads((root / "ckpt" / "meta.json").read_text(encoding="utf-8"))

    fold_store = MemStore.create(root / "folds")
    FoldedCandidateSource(mapped_model, store=fold_store).materialize(
        relations=[int(r) for r in bench_relations], sides=("tail",), dtype="float32"
    )
    pq = PQConfig(
        m=scale_config["pq_m"],
        refine=scale_config["refine"],
        train_sample=scale_config["pq_train_sample"],
        seed=0,
    )
    builder = IVFIndex(
        mapped_model,
        nlist=scale_config["nlist"],
        nprobe=scale_config["nprobe"],
        spill=scale_config["spill"],
        seed=0,
        pq=pq,
        train_sample=scale_config["kmeans_train_sample"],
        fold_store=MemStore.open(root / "folds"),
    )
    builder.build(relations=bench_relations, sides=("tail",))
    builder.save(root / "index")
    build_seconds = time.perf_counter() - started
    artifact_bytes = _tree_bytes(root / "ckpt", root / "folds", root / "index")
    del builder, exact, model
    gc.collect()

    # ------------------------------------------- mapped: float32 + PQ-IVF serve
    index = load_index(
        root / "index", mapped_model, fold_store=MemStore.open(root / "folds")
    )
    predictor = LinkPredictor(mapped_model, dataset, cache_size=0, index=index)
    mapped_batch_seconds = _time_batch(
        lambda: predictor.top_k(heads, relations, side="tail", k=TOP_K)
    )
    mapped_ids = predictor.top_k(heads, relations, side="tail", k=TOP_K).ids
    mapped_latency = _per_query_latency_ms(
        lambda h, r: predictor.top_k(h, r, side="tail", k=TOP_K),
        heads,
        relations,
        scale_config["latency_queries"],
    )
    mapped_private, mapped_bytes = array_memory(
        _model_arrays(mapped_model) + index.resident_arrays()
    )
    mapped = {
        "storage": "float32 memmap checkpoint + materialized folds + PQ-IVF memmap",
        "tracked_in_process_bytes": mapped_private,
        "tracked_mapped_bytes": mapped_bytes,
        "artifact_bytes_on_disk": artifact_bytes,
        "checkpoint_dtype": ckpt_meta.get("dtype"),
        "score_equivalence_gap": ckpt_meta.get("score_equivalence_gap"),
        "batch_seconds": mapped_batch_seconds,
        "latency": mapped_latency,
        "rss_anon_kb": _rss_anon_kb(),
        "index_stats": predictor.index_stats_dict(),
    }

    recall = float(
        np.mean(
            [
                np.intersect1d(approx[approx >= 0], truth).size / TOP_K
                for approx, truth in zip(mapped_ids, exact_ids)
            ]
        )
    )
    reduction = (
        baseline["tracked_in_process_bytes"] / mapped["tracked_in_process_bytes"]
        if mapped["tracked_in_process_bytes"]
        else float("inf")
    )
    workdir.cleanup()

    results = {
        "benchmark": (
            "million-entity serving: memory-mapped float32 + PQ-IVF coarse pass "
            "vs float64 in-process exact"
        ),
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
            "artifact_build_seconds": build_seconds,
            "nlist": scale_config["nlist"],
            "nprobe": scale_config["nprobe"],
            "spill": scale_config["spill"],
            "pq": pq.to_dict(),
            "kmeans_train_sample": scale_config["kmeans_train_sample"],
            "bench_relations": [int(r) for r in bench_relations],
            "queries": int(len(heads)),
            "top_k": TOP_K,
            "recall_target": RECALL_TARGET,
            "reduction_target": REDUCTION_TARGET,
        },
        "baseline": baseline,
        "mapped": mapped,
        "recall_at_10": recall,
        "memory_reduction": reduction,
        "acceptance": {
            "achieved": recall >= RECALL_TARGET and reduction >= REDUCTION_TARGET,
            "recall_at_10": recall,
            "memory_reduction": reduction,
        },
    }
    if json_path is not None:
        Path(json_path).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def _fmt_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(count) < 1024 or unit == "GB":
            return f"{count:.1f}{unit}" if unit != "B" else f"{int(count)}B"
        count /= 1024
    return f"{count:.1f}GB"


def format_results(results: dict) -> str:
    """Human-readable two-arm comparison of the JSON payload."""
    dataset = results["dataset"]
    config = results["config"]
    lines = [
        f"memory-mapped serving on {dataset['name']} "
        f"(N={dataset['num_entities']:,}, nlist={config['nlist']}, "
        f"nprobe={config['nprobe']}, pq m={config['pq']['m']}/refine="
        f"{config['pq']['refine']}, {config['queries']} queries)",
        f"{'arm':>9} {'private':>10} {'mapped':>10} {'batch':>9} "
        f"{'p50':>8} {'p90':>8}",
    ]
    for name in ("baseline", "mapped"):
        arm = results[name]
        lines.append(
            f"{name:>9} {_fmt_bytes(arm['tracked_in_process_bytes']):>10} "
            f"{_fmt_bytes(arm['tracked_mapped_bytes']):>10} "
            f"{arm['batch_seconds']:>8.3f}s "
            f"{arm['latency']['p50_ms']:>6.2f}ms "
            f"{arm['latency']['p90_ms']:>6.2f}ms"
        )
    lines.append(
        f"recall@10 {results['recall_at_10']:.3f} "
        f"(target >= {config['recall_target']}), private-memory reduction "
        f"{results['memory_reduction']:.1f}x (target >= {config['reduction_target']}x)"
    )
    lines.append(
        "acceptance " + ("MET" if results["acceptance"]["achieved"] else "NOT met")
    )
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.index
def test_memory_reduction_at_scale():
    from benchmarks.conftest import is_fast, publish_table

    results = run_benchmark(fast=is_fast())
    publish_table("memory", format_results(results))
    assert results["acceptance"]["achieved"], results["acceptance"]


if __name__ == "__main__":
    fast_flag = "--fast" in sys.argv
    scale_arg = None
    if "--scale" in sys.argv:
        scale_arg = float(sys.argv[sys.argv.index("--scale") + 1])
    print(format_results(run_benchmark(fast=fast_flag, scale=scale_arg)))
    print(f"\nwrote {DEFAULT_JSON_PATH}")
