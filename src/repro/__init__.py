"""repro — multi-embedding interaction for knowledge graph embedding.

A from-scratch reproduction of *"Analyzing Knowledge Graph Embedding
Methods from a Multi-Embedding Interaction Perspective"* (Tran & Takasu,
EDBT/DSI4 2019): the Eq. 8 interaction mechanism, the Table 1 model
derivations (DistMult, ComplEx, CP, CPh), learned interaction weights,
the quaternion four-embedding model, and the full training/evaluation
stack they need — in pure numpy.

Quickstart
----------
>>> import numpy as np
>>> from repro import generate_synthetic_kg, SyntheticKGConfig
>>> from repro import make_complex, Trainer, TrainingConfig, LinkPredictionEvaluator
>>> dataset = generate_synthetic_kg(SyntheticKGConfig(num_entities=200, seed=1))
>>> model = make_complex(dataset.num_entities, dataset.num_relations,
...                      total_dim=32, rng=np.random.default_rng(1))
>>> result = Trainer(dataset, TrainingConfig(epochs=5, batch_size=256)).train(model)
>>> metrics = LinkPredictionEvaluator(dataset).evaluate(model, "test")
"""

from repro.core import (
    KGEModel,
    LearnedWeightModel,
    MultiEmbeddingModel,
    WeightVector,
    analyze_weight_vector,
    get_preset,
    make_complex,
    make_cp,
    make_cph,
    make_distmult,
    make_learned_weight_model,
    make_model,
    make_quaternion,
    parity_dim,
)
from repro.errors import ReproError
from repro.eval import EvaluationResult, LinkPredictionEvaluator, RankingMetrics
from repro.kg import (
    KGDataset,
    SyntheticKGConfig,
    TripleSet,
    Vocabulary,
    augment_with_inverses,
    generate_synthetic_kg,
)
from repro.pipeline import (
    Registry,
    RunConfig,
    RunResult,
    evaluate_run,
    load_run,
    run_pipeline,
    serve_run,
    sweep,
)
from repro.serving import BatchedScorer, LinkPredictor, TopKResult
from repro.training import Trainer, TrainingConfig, TrainingResult, train_model

# The retrieval-index subsystem is exported lazily (PEP 562, via the
# shared repro._lazy machinery): its modules pull in the build machinery
# (k-means, process pools), which `import repro` should not pay for.
from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "CandidateIndex": "repro.index.base",
    "ExactIndex": "repro.index.exact",
    "FoldedCandidateSource": "repro.index.folded_vectors",
    "IVFIndex": "repro.index.ivf",
    "load_index": "repro.index.base",
    "FaultInjector": "repro.reliability",
    "FaultPlan": "repro.reliability",
    "FaultSpec": "repro.reliability",
    "fault_scope": "repro.reliability",
    "MetricsRegistry": "repro.obs",
    "MetricsSnapshot": "repro.obs",
    "Tracer": "repro.obs",
    "metrics_scope": "repro.obs",
    "prometheus_text": "repro.obs",
    "telemetry_scope": "repro.obs",
    "trace_scope": "repro.obs",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY_EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "BatchedScorer",
    "CandidateIndex",
    "EvaluationResult",
    "ExactIndex",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FoldedCandidateSource",
    "IVFIndex",
    "KGDataset",
    "KGEModel",
    "LearnedWeightModel",
    "LinkPredictionEvaluator",
    "LinkPredictor",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MultiEmbeddingModel",
    "RankingMetrics",
    "Registry",
    "RunConfig",
    "RunResult",
    "TopKResult",
    "ReproError",
    "SyntheticKGConfig",
    "Tracer",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "TripleSet",
    "Vocabulary",
    "WeightVector",
    "__version__",
    "analyze_weight_vector",
    "augment_with_inverses",
    "evaluate_run",
    "fault_scope",
    "generate_synthetic_kg",
    "get_preset",
    "load_index",
    "load_run",
    "make_complex",
    "make_cp",
    "make_cph",
    "make_distmult",
    "make_learned_weight_model",
    "make_model",
    "make_quaternion",
    "metrics_scope",
    "parity_dim",
    "prometheus_text",
    "run_pipeline",
    "serve_run",
    "sweep",
    "telemetry_scope",
    "trace_scope",
    "train_model",
]
