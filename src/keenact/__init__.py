"""Two-stage item-activity recommendation.

The library decomposes activity recommendation into a Keen stage (which
items is a user interested in?) and an Act stage (which activities will
the user perform on a selected item?).  Both stages are factorization
machines trained with a WARP ranking loss, followed by per-item and
per-activity decision thresholds fitted with a cross-entropy objective.
"""

from keenact.data import (
    Catalog,
    DatasetError,
    EmptyDatasetError,
    InteractionStore,
    ParseError,
    SchemaError,
    SplitPair,
    filter_active_users,
    ingest,
    split_per_user,
)
from keenact.features import (
    CSR,
    FeatureLayout,
    FeatureMatrix,
    SparseVector,
    assemble_act_input,
    assemble_keen_input,
    co_participation_features,
    tfidf_item_features,
)
from keenact.fm import AdamState, FMGradient, FMParameters, adam_update, fm_gradient, fm_score, init_params
from keenact.training import (
    ThresholdTable,
    TrainConfig,
    TrainedModel,
    estimate_rank,
    phi,
    train,
)
from keenact.recommend import RecommendationList, decide, recommend, select_activities, select_items
from keenact.evaluation import (
    EvalReport,
    FlatPairSpace,
    average_precision_at_k,
    evaluate_split,
    map_at_k,
    run_experiment,
    train_baseline,
)
from keenact.snapshot import load_model, save_model
from keenact.synth import generate_two_stage

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CSR",
    "Catalog",
    "DatasetError",
    "EmptyDatasetError",
    "EvalReport",
    "FMGradient",
    "FMParameters",
    "FeatureLayout",
    "FeatureMatrix",
    "FlatPairSpace",
    "InteractionStore",
    "ParseError",
    "RecommendationList",
    "SchemaError",
    "SparseVector",
    "SplitPair",
    "ThresholdTable",
    "TrainConfig",
    "TrainedModel",
    "adam_update",
    "assemble_act_input",
    "assemble_keen_input",
    "average_precision_at_k",
    "co_participation_features",
    "decide",
    "estimate_rank",
    "evaluate_split",
    "filter_active_users",
    "fm_gradient",
    "fm_score",
    "generate_two_stage",
    "ingest",
    "init_params",
    "load_model",
    "map_at_k",
    "phi",
    "recommend",
    "run_experiment",
    "save_model",
    "select_activities",
    "select_items",
    "split_per_user",
    "tfidf_item_features",
    "train",
    "train_baseline",
]
