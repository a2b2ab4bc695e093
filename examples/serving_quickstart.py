"""Serving quickstart: batched top-k link prediction on a synthetic FB graph.

Trains a small ComplEx model on the Freebase-flavoured synthetic dataset
and then answers the three serving-side questions a knowledge-base
product asks — "which tails?", "which heads?", "which relations?" —
through :class:`repro.serving.LinkPredictor`: batched scoring,
filtered-candidate masking, and the opt-in LRU score cache.  Runs in well under a minute:

    python examples/serving_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Trainer, TrainingConfig, make_complex
from repro.kg.synthetic_fb import SyntheticFBConfig, generate_synthetic_fb15k
from repro.serving import LinkPredictor


def main() -> None:
    # 1. A Freebase-like dataset: many templated relations, typed slots,
    #    heavy N-to-N hub structure (see repro.kg.synthetic_fb).
    dataset = generate_synthetic_fb15k(
        SyntheticFBConfig(num_entities=400, relation_templates=8, seed=3)
    )
    print(f"dataset: {dataset}\n")

    # 2. Train a small ComplEx model — enough signal for meaningful top-k.
    model = make_complex(
        dataset.num_entities,
        dataset.num_relations,
        total_dim=32,
        rng=np.random.default_rng(0),
        regularization=3e-3,
    )
    Trainer(dataset, TrainingConfig(epochs=60, batch_size=512, seed=0, verbose=False)).train(model)

    # 3. A predictor over the trained model.  It scores through the
    #    model's compiled ω kernel, like evaluation; the LRU cache
    #    (off unless cache_size > 0) re-serves hot (entity, relation)
    #    sweeps without recomputing them.
    predictor = LinkPredictor(model, dataset, cache_size=1024)

    # 4. Tail prediction for the first few test triples, filtered so that
    #    already-known true tails don't crowd out new predictions.
    print("top-3 tail predictions (filtered):")
    for head_id, tail_id, rel_id in dataset.test.array[:5]:
        head = dataset.entities.name(int(head_id))
        relation = dataset.relations.name(int(rel_id))
        predictions = predictor.predict(head=head, relation=relation, k=3)
        names = ", ".join(f"{name} ({score:+.2f})" for name, score in predictions)
        truth = dataset.entities.name(int(tail_id))
        print(f"  ({head}, {relation}, ?)  ->  {names}   [true: {truth}]")

    # 5. The same queries again — now served from the cache.
    for head_id, _, rel_id in dataset.test.array[:5]:
        predictor.predict(
            head=dataset.entities.name(int(head_id)),
            relation=dataset.relations.name(int(rel_id)),
            k=3,
        )
    snapshot = predictor.metrics_snapshot()
    hits = snapshot.counters["serving.cache.hits"]
    misses = snapshot.counters["serving.cache.misses"]
    print(f"\ncache after a repeat pass: {hits} hits / {misses} misses "
          f"(hit rate {snapshot.gauges['serving.cache.hit_rate']:.0%})")

    # 6. Batched head prediction and relation prediction, id-level API.
    test = dataset.test.array
    heads_top = predictor.top_k(test[:8, 1], test[:8, 2], side="head", k=5, filtered=True)
    print(f"\nbatched head prediction ids, shape {heads_top.ids.shape}:")
    print(heads_top.ids)
    rel_top = predictor.top_k(test[:4, 0], test[:4, 1], side="relation", k=3)
    print("\nrelation prediction for 4 (head, tail) pairs:")
    for row, (head_id, tail_id) in enumerate(zip(test[:4, 0], test[:4, 1])):
        labels = dataset.relations.names(list(rel_top.ids[row]))
        true_rel = dataset.relations.name(int(test[row, 2]))
        print(f"  ({dataset.entities.name(int(head_id))}, ?, "
              f"{dataset.entities.name(int(tail_id))}) -> {labels}   [true: {true_rel}]")


if __name__ == "__main__":
    main()
