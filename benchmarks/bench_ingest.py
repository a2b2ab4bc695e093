"""Incremental-ingestion benchmark: delta batches vs from-scratch rebuild.

Simulates a growing knowledge graph: a synthetic graph is split into a
*base* snapshot and a held-out *stream* of triples incident to entities
the base has never seen.  The stream arrives as ``N`` transactional
:class:`~repro.ingest.GraphDelta` batches, and the bench compares two
ways of absorbing it:

* **incremental** — the unified mutation path of :mod:`repro.ingest`:
  each batch is applied through :func:`~repro.ingest.ingest_delta`
  (dataset apply + embedding-table growth + warm-start fine-tuning of
  touched rows + incremental IVF maintenance against frozen centroids).
  Cost is the summed ingest wall-clock only — the base model/index are
  the sunk cost the serving fleet already paid.
* **scratch** — retrain the model from initialization on the final graph
  and rebuild the IVF index from scratch (what absorbing the stream
  costs without the incremental path).

Both arms then evaluate on the *same* test triples (chosen to avoid the
stream entities so the comparison is apples-to-apples): filtered test
MRR through the standard evaluator, and index recall@10 of the
IVF-served top-k against each arm's own exact full-sweep answers.

Results go to ``BENCH_ingest.json`` at the repository root (schema in
``benchmarks/README.md``).  The acceptance target — incremental MRR and
recall@10 within tolerance of scratch at ≤ 25% of its wall-clock cost —
is asserted by the full-scale slow run and by the tier-1 smoke run
(``run_benchmark(fast=True)``, wired into ``scripts/ci.sh``).

Run modes mirror the other benches:

* ``pytest benchmarks/bench_ingest.py`` — full scale (slow);
* ``python benchmarks/bench_ingest.py [--fast]`` — prints the table and
  writes the JSON at full scale.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.eval.evaluator import LinkPredictionEvaluator
from repro.index.ivf import IVFIndex
from repro.ingest import GraphDelta, ingest_delta
from repro.kg.graph import KGDataset
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor
from repro.training.trainer import Trainer, TrainingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # run standalone
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import bench_json_path  # noqa: E402

DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_ingest.json"

#: Acceptance targets asserted by the smoke and slow tests: the
#: incremental arm must land within these absolute deltas of the
#: from-scratch arm while spending at most this fraction of its cost.
COST_RATIO_TARGET = 0.25
MRR_TOLERANCE = 0.05
RECALL_TOLERANCE = 0.05
TOP_K = 10

#: Full scale: ~6k entities with a real training budget, ~5% of the
#: graph arriving as the stream over 6 delta batches.  Fast scale (the
#: tier-1 smoke run) shrinks everything but keeps the same shape — the
#: gate is the *ratio* between the arms, which survives downscaling.
FULL_SCALE = dict(
    scale=4.0, total_dim=16, epochs=100, batch_size=2048, num_negatives=4,
    learning_rate=0.05, batches=6, new_entity_fraction=0.05,
    extra_triple_fraction=0.02, ingest_epochs=6, ingest_batch_size=512,
    ingest_learning_rate=0.03, queries=200,
)
FAST_SCALE = dict(
    scale=1.0, total_dim=16, epochs=40, batch_size=1024, num_negatives=2,
    learning_rate=0.08, batches=3, new_entity_fraction=0.03,
    extra_triple_fraction=0.01, ingest_epochs=4, ingest_batch_size=256,
    ingest_learning_rate=0.03, queries=120,
)


def _named(dataset: KGDataset, rows: np.ndarray) -> list[tuple[str, str, str]]:
    """``(head, tail, relation)`` name triples of an id-triple array."""
    ents, rels = dataset.entities, dataset.relations
    return [(ents.name(h), ents.name(t), rels.name(r)) for h, t, r in rows]


def _split_stream(full: KGDataset, scale_config: dict, rng) -> tuple[list, list, list, list, int]:
    """Split the full graph into base-train, stream, valid and test names.

    Stream entities are sampled from train-only entities (absent from
    valid/test), so the held-out evaluation triples are identical for
    both arms and the stream's entities are genuinely *new* to the base
    snapshot — their first appearance is inside a delta.
    """
    train = full.train.deduplicate().array
    eval_entities = np.unique(
        np.concatenate([full.valid.array[:, :2].ravel(), full.test.array[:, :2].ravel()])
    )
    candidates = np.setdiff1d(np.unique(train[:, :2]), eval_entities)
    num_new = max(1, int(scale_config["new_entity_fraction"] * full.num_entities))
    num_new = min(num_new, max(1, len(candidates) - 1))
    new_entities = rng.choice(candidates, size=num_new, replace=False)
    incident = np.isin(train[:, 0], new_entities) | np.isin(train[:, 1], new_entities)
    extra = (~incident) & (
        rng.random(len(train)) < scale_config["extra_triple_fraction"]
    )
    stream_mask = incident | extra
    if stream_mask.all():  # keep the base snapshot trainable
        stream_mask[: len(train) // 2] = False
    base_names = _named(full, train[~stream_mask])
    stream_names = _named(full, train[stream_mask])
    valid_names = _named(full, full.valid.array)
    test_names = _named(full, full.test.array)
    return base_names, stream_names, valid_names, test_names, int(num_new)


def _train_model(dataset: KGDataset, scale_config: dict):
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


def _build_ivf(model, dataset: KGDataset) -> IVFIndex:
    index = IVFIndex(model, seed=0, spill=2)
    # A generous probe budget: the gate is the incremental-vs-scratch
    # recall *delta*, which a starved budget would drown in probe noise.
    index.nprobe = max(index.nprobe, index.nlist // 4)
    index.build(relations=np.unique(dataset.test.relations), sides=("tail",))
    return index


def _recall_at_k(model, dataset: KGDataset, index: IVFIndex, queries: int) -> float:
    """Mean recall@k of index-served tails vs the exact full sweep."""
    heads = dataset.test.heads[:queries]
    relations = dataset.test.relations[:queries]
    exact = LinkPredictor(model, dataset).top_k(
        heads, relations, side="tail", k=TOP_K
    )
    served = LinkPredictor(model, dataset, index=index).top_k(
        heads, relations, side="tail", k=TOP_K
    )
    return float(
        np.mean(
            [
                np.intersect1d(approx[approx >= 0], truth).size / TOP_K
                for approx, truth in zip(served.ids, exact.ids)
            ]
        )
    )


def _filtered_mrr(model, dataset: KGDataset) -> float:
    return LinkPredictionEvaluator(dataset).evaluate(model, split="test").overall.mrr


def run_benchmark(
    fast: bool = False, json_path: Path | str | None = None
) -> dict:
    """Absorb a triple stream incrementally and from scratch; compare."""
    scale_config = dict(FAST_SCALE if fast else FULL_SCALE)
    rng = np.random.default_rng(11)
    full = generate_synthetic_kg(SyntheticKGConfig(seed=3, scale=scale_config["scale"]))
    base_names, stream_names, valid_names, test_names, num_new = _split_stream(
        full, scale_config, rng
    )

    # ---------------------------------------------------------- incremental
    base = KGDataset.from_labeled_triples(
        base_names, valid_names, test_names, name="ingest_base"
    )
    model = _train_model(base, scale_config)
    _ = base.filter_index  # force the one from-scratch build; deltas update it
    index = _build_ivf(model, base)

    batches = [
        batch.tolist()
        for batch in np.array_split(np.array(stream_names, dtype=object), scale_config["batches"])
        if len(batch)
    ]
    dataset = base
    incremental_seconds = 0.0
    batch_receipts = []
    for i, batch in enumerate(batches):
        delta = GraphDelta(add_triples=tuple(tuple(row) for row in batch))
        outcome = ingest_delta(
            model,
            dataset,
            delta,
            index=index,
            epochs=scale_config["ingest_epochs"],
            batch_size=scale_config["ingest_batch_size"],
            learning_rate=scale_config["ingest_learning_rate"],
            num_negatives=scale_config["num_negatives"],
            seed=i,
        )
        dataset = outcome.dataset
        incremental_seconds += outcome.seconds
        batch_receipts.append(outcome.to_dict())

    queries = min(scale_config["queries"], len(dataset.test))
    incremental = {
        "seconds": incremental_seconds,
        "filtered_mrr": _filtered_mrr(model, dataset),
        "recall_at_10": _recall_at_k(model, dataset, index, queries),
        "graph_version": len(batches),
        "index_rebuilds": index.rebuilds,
        "batches": batch_receipts,
    }

    # -------------------------------------------------------------- scratch
    final = KGDataset.from_labeled_triples(
        base_names + stream_names, valid_names, test_names, name="ingest_final"
    )
    assert len(final.train) == len(dataset.train)
    started = time.perf_counter()
    scratch_model = _train_model(final, scale_config)
    train_seconds = time.perf_counter() - started
    started = time.perf_counter()
    scratch_index = _build_ivf(scratch_model, final)
    build_seconds = time.perf_counter() - started
    scratch = {
        "seconds": train_seconds + build_seconds,
        "train_seconds": train_seconds,
        "build_seconds": build_seconds,
        "filtered_mrr": _filtered_mrr(scratch_model, final),
        "recall_at_10": _recall_at_k(scratch_model, final, scratch_index, queries),
    }

    cost_ratio = incremental["seconds"] / scratch["seconds"]
    mrr_delta = incremental["filtered_mrr"] - scratch["filtered_mrr"]
    recall_delta = incremental["recall_at_10"] - scratch["recall_at_10"]
    results = {
        "benchmark": "incremental graph ingestion vs from-scratch retrain + rebuild",
        "dataset": {
            "name": full.name,
            "scale": scale_config["scale"],
            "num_entities_final": final.num_entities,
            "num_entities_base": base.num_entities,
            "new_entities": num_new,
            "stream_triples": len(stream_names),
            "base_triples": len(base_names),
        },
        "config": {
            "fast": fast,
            "model": "complex",
            "total_dim": scale_config["total_dim"],
            "epochs": scale_config["epochs"],
            "batches": len(batches),
            "ingest_epochs": scale_config["ingest_epochs"],
            "queries": queries,
            "top_k": TOP_K,
            "cost_ratio_target": COST_RATIO_TARGET,
            "mrr_tolerance": MRR_TOLERANCE,
            "recall_tolerance": RECALL_TOLERANCE,
        },
        "incremental": incremental,
        "scratch": scratch,
        "acceptance": {
            "cost_ratio": cost_ratio,
            "mrr_delta": mrr_delta,
            "recall_delta": recall_delta,
            "achieved": bool(
                cost_ratio <= COST_RATIO_TARGET
                and mrr_delta >= -MRR_TOLERANCE
                and recall_delta >= -RECALL_TOLERANCE
            ),
        },
    }
    json_path = bench_json_path(json_path, DEFAULT_JSON_PATH, fast)
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def format_results(results: dict) -> str:
    """Human-readable summary table of the JSON payload."""
    dataset = results["dataset"]
    acc = results["acceptance"]
    inc, scr = results["incremental"], results["scratch"]
    lines = [
        f"Incremental ingestion on {dataset['name']} "
        f"({dataset['num_entities_base']:,} -> {dataset['num_entities_final']:,} "
        f"entities, {dataset['stream_triples']:,} stream triples over "
        f"{results['config']['batches']} batches)",
        f"{'arm':<12} {'seconds':>9} {'filtered MRR':>13} {'recall@10':>10}",
        f"{'incremental':<12} {inc['seconds']:>9.2f} {inc['filtered_mrr']:>13.3f} "
        f"{inc['recall_at_10']:>10.3f}",
        f"{'scratch':<12} {scr['seconds']:>9.2f} {scr['filtered_mrr']:>13.3f} "
        f"{scr['recall_at_10']:>10.3f}",
        f"cost ratio {acc['cost_ratio']:.3f} (target <= {COST_RATIO_TARGET}), "
        f"MRR delta {acc['mrr_delta']:+.3f}, recall delta {acc['recall_delta']:+.3f}"
        f" -> {'PASS' if acc['achieved'] else 'FAIL'}",
    ]
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.ingest
def test_incremental_ingest_matches_scratch_cheaply():
    from benchmarks.conftest import is_fast, publish_table

    results = run_benchmark(fast=is_fast())
    publish_table("ingest", format_results(results))
    assert results["acceptance"]["achieved"], results["acceptance"]


if __name__ == "__main__":
    fast_flag = "--fast" in sys.argv
    print(format_results(run_benchmark(fast=fast_flag)))
    if not fast_flag:
        print(f"\nwrote {DEFAULT_JSON_PATH}")
