"""``repro.eval`` — metrics, significance tests, and analysis drivers."""

from repro.eval.auc import binary_auc, global_auc, session_auc, session_auc_at_k
from repro.eval.clustering import fig7_user_groups, nearest_centroid_purity, silhouette_score
from repro.eval.evaluator import (
    METRIC_NAMES,
    evaluate_ranking,
    predict_scores,
)
from repro.eval.importance import FeatureImportanceResult, feature_importance_by_user_group
from repro.eval.ndcg import dcg, session_ndcg
from repro.eval.significance import (
    paired_bootstrap_pvalue,
    session_metric_samples,
    two_proportion_z_test,
)
from repro.eval.tsne import TSNEParams, tsne

__all__ = [
    "binary_auc",
    "global_auc",
    "session_auc",
    "session_auc_at_k",
    "fig7_user_groups",
    "nearest_centroid_purity",
    "silhouette_score",
    "METRIC_NAMES",
    "evaluate_ranking",
    "predict_scores",
    "FeatureImportanceResult",
    "feature_importance_by_user_group",
    "dcg",
    "session_ndcg",
    "paired_bootstrap_pvalue",
    "session_metric_samples",
    "two_proportion_z_test",
    "TSNEParams",
    "tsne",
]
