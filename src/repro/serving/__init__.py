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
batched, cached view over any trained :class:`~repro.core.base.KGEModel`.

Architecture
------------
Three layers, each usable on its own:

``RelationFoldedScorer`` (:mod:`repro.serving.folded`)
    For the multi-embedding model (Eq. 8), folds the interaction tensor
    ω into a per-relation mixing tensor ``W_r[i,j,d] = Σ_k ω_ijk r^(k)_d``
    **once**, then scores all candidates of any query with a single
    smaller einsum — the same shape of fast path RESCAL gets natively
    from its per-relation matrix.  Rebuilt automatically when the model
    trains (tracked via ``KGEModel.scoring_version``).

``BatchedScorer`` (:mod:`repro.serving.scorer`)
    Memory-bounded chunked sweeps: 1-vs-all score matrices are produced
    in row chunks derived from an element budget, so arbitrarily large
    query batches (or eval splits) stream through constant memory.  The
    :class:`~repro.eval.evaluator.LinkPredictionEvaluator` runs on this
    same scorer, so evaluation and serving share one code path.

``LinkPredictor`` (:mod:`repro.serving.predictor`)
    The request-level API: one ``top_k(side="tail"|"head"|"relation")``
    entry point over id batches with shared knobs (``k``, ``filtered``,
    ``exact``), checked by one ``check_query`` that the serving daemon's
    ``PredictionServer.top_k`` also runs at admission — plus
    name-level ``predict`` for single queries, optional *filtered*
    masking of already-known true triples (reusing
    :class:`~repro.kg.graph.FilterIndex`), explicit candidate sets via
    the models' ``score_candidates`` fast paths, and an
    :class:`~repro.serving.cache.LRUScoreCache` of score vectors keyed
    on ``(entity, relation, side)`` that is invalidated whenever the
    model's parameters change.

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
from repro.serving.folded import RelationFoldedScorer
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
    "RelationFoldedScorer",
    "ServedTopK",
    "TopKResult",
    "serve_forever",
    "start_tcp_server",
]
