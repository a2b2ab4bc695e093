"""Evaluation harness: filtered ranking protocol and metrics (paper §5.2)."""

from repro.eval.evaluator import EvaluationResult, LinkPredictionEvaluator
from repro.eval.per_relation import (
    PerRelationResult,
    evaluate_per_relation,
    format_per_relation_table,
    symmetry_gap,
)
from repro.eval.metrics import (
    DEFAULT_HITS_AT,
    RankingMetrics,
    compute_metrics,
    merge_metrics,
)
from repro.eval.ranking import (
    TIE_POLICIES,
    rank_of_true,
    ranks_from_score_matrix,
)

__all__ = [
    "DEFAULT_HITS_AT",
    "PerRelationResult",
    "EvaluationResult",
    "LinkPredictionEvaluator",
    "RankingMetrics",
    "TIE_POLICIES",
    "compute_metrics",
    "evaluate_per_relation",
    "format_per_relation_table",
    "merge_metrics",
    "rank_of_true",
    "symmetry_gap",
    "ranks_from_score_matrix",
]
