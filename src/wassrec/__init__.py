"""Optimal-transport recommendation for item cold start.

Preference histograms over interacted items are pushed onto unseen
items through entropy-smoothed optimal transport, either directly
(one closed-form inference per user) or through a low-rank coupled
factorization trained by dual block-coordinate descent.
"""

from .dataio import (
    ColdStartSplit,
    GenomeTable,
    InteractionTable,
    build_cost_matrix,
    cold_start_split,
    filter_catalog,
    load_genome,
    load_interactions,
    read_split_manifest,
    write_split_manifest,
)
from .exceptions import (ConvergenceError, DataError, RankDeficiencyError, SolverError,
                         UnboundedDualError)
from .metrics import (
    EvaluationReport,
    UserScores,
    average_precision,
    evaluate_run,
    ndcg_at,
    recall_at,
    write_report_files,
)
from .transport import (
    CostMatrix,
    GibbsKernel,
    TransportPlan,
    batch_conjugate,
    batch_sinkhorn,
    conjugate_grad,
    conjugate_value,
    entropy,
    exact_ot,
    simplex,
    sinkhorn,
)
from .wcf import (
    DualState,
    FactorModel,
    TrainOptions,
    d_step,
    init_factors,
    lambda_step,
    load_model,
    predict_user,
    save_model,
    train_wcf,
)
from .wfilter import RankedList, UserInteractions, estimate_preference, infer_cold, rank_items

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DataError",
    "RankDeficiencyError",
    "SolverError",
    "UnboundedDualError",
    "CostMatrix",
    "GibbsKernel",
    "TransportPlan",
    "batch_conjugate",
    "batch_sinkhorn",
    "conjugate_grad",
    "conjugate_value",
    "entropy",
    "exact_ot",
    "simplex",
    "sinkhorn",
    "UserInteractions",
    "RankedList",
    "estimate_preference",
    "infer_cold",
    "rank_items",
    "TrainOptions",
    "FactorModel",
    "DualState",
    "init_factors",
    "lambda_step",
    "d_step",
    "train_wcf",
    "predict_user",
    "save_model",
    "load_model",
    "InteractionTable",
    "GenomeTable",
    "ColdStartSplit",
    "load_interactions",
    "load_genome",
    "filter_catalog",
    "build_cost_matrix",
    "cold_start_split",
    "write_split_manifest",
    "read_split_manifest",
    "UserScores",
    "EvaluationReport",
    "average_precision",
    "ndcg_at",
    "recall_at",
    "evaluate_run",
    "write_report_files",
    "__version__",
]
