"""repro.serving — batched link-prediction serving.

Why this package exists
-----------------------
The evaluation protocol of §5.2 — score *every* entity as a candidate
head/tail for a triple — is exactly the hot path a production
link-prediction service runs per request.  Training-oriented code paths
(``score_all_tails`` consumed one eval batch at a time) leave easy
factor-of-N wins on the table for a serving workload, where the same
entities and relations are queried over and over and latency matters.
This package is the serving side of the repository: a read-only,
batched view over any trained :class:`~repro.core.base.KGEModel`.

Architecture
------------
Three layers, each usable on its own:

``BatchedScorer`` (:mod:`repro.serving.scorer`)
    Memory-bounded chunked sweeps through the model's own scoring (for
    Eq. 8 models, the compiled ω kernel): 1-vs-all score matrices are
    produced in row chunks derived from an element budget, so
    arbitrarily large query batches (or eval splits) stream through
    constant memory.  The
    :class:`~repro.eval.evaluator.LinkPredictionEvaluator` runs on this
    same scorer, so evaluation and serving share one code path: on the
    same batch, serving returns bit for bit the scores evaluation ranks
    with.

``LinkPredictor`` (:mod:`repro.serving.predictor`)
    The request-level API: one ``top_k(side="tail"|"head"|"relation")``
    entry point over id batches with shared knobs (``k``, ``filtered``,
    ``exact``), checked by one ``check_query`` that the serving daemon's
    ``PredictionServer.top_k`` also runs at admission — plus
    name-level ``predict`` for single queries, optional *filtered*
    masking of already-known true triples (reusing
    :class:`~repro.kg.graph.FilterIndex`), explicit candidate sets via
    the models' ``score_candidates`` fast paths, and an opt-in
    (``cache_size > 0``) :class:`~repro.serving.cache.LRUScoreCache` of
    score vectors keyed on ``(entity, relation, side)`` that is
    invalidated whenever the model's parameters change.  The cache is
    off by default: on graph-drawn traffic over 24,000 entities it hit
    4-5 % of lookups while its 4,096 vectors held 786 MB.

``PredictionServer`` (:mod:`repro.serving.server`)
    The micro-batching daemon over one ``LinkPredictor``: it groups a
    batch by ``(side, filtered)`` and scores all of it in one
    worker-thread hop, one predictor call per group.

Ties are always broken toward the lower candidate id, so repeated,
batched and cached queries rank deterministically and agree with a
brute-force per-triple ranking.

Quickstart
----------
>>> import numpy as np
>>> from repro import generate_synthetic_kg, SyntheticKGConfig, make_complex
>>> from repro.serving import LinkPredictor
>>> dataset = generate_synthetic_kg(SyntheticKGConfig(num_entities=200, seed=1))
>>> model = make_complex(dataset.num_entities, dataset.num_relations,
...                      total_dim=32, rng=np.random.default_rng(1))
>>> predictor = LinkPredictor(model, dataset)
>>> top = predictor.top_k([0, 1], [0, 0], side="tail", k=5, filtered=True)
>>> top.ids.shape, top.scores.shape
((2, 5), (2, 5))
>>> predictor.predict(head=dataset.entities.name(0),
...                   relation=dataset.relations.name(0), k=3)  # doctest: +SKIP
[('entity_17', 4.2), ('entity_3', 3.9), ('entity_88', 3.1)]

See ``examples/serving_quickstart.py`` for an end-to-end script and
``benchmarks/bench_serving_latency.py`` for the latency/throughput
numbers behind the design.
"""

from repro.serving.cache import LRUScoreCache
from repro.serving.predictor import LinkPredictor, TopKResult
from repro.serving.scorer import BatchedScorer
from repro.serving.server import (
    Deployment,
    PredictionServer,
    ServedTopK,
    serve_forever,
    start_tcp_server,
)

__all__ = [
    "BatchedScorer",
    "Deployment",
    "LRUScoreCache",
    "LinkPredictor",
    "PredictionServer",
    "ServedTopK",
    "TopKResult",
    "serve_forever",
    "start_tcp_server",
]
