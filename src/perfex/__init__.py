"""perfex: explain where a classifier performs well or poorly.

The package turns one pass of model predictions over a dataset into a small
decision tree whose splits maximize the gap in a chosen performance metric,
then renders each leaf as a plain-language condition block.  Everything is
model-agnostic: only a table of features, true labels, predicted labels and
optional scores is ever needed.
"""

from .dataset import (
    BINARY,
    CATEGORICAL,
    NUMERIC,
    ClassSet,
    Feature,
    FeatureSchema,
    PredictionTable,
    load_table,
    stratified_split,
    write_csv,
)
from .errors import (
    DataFormatError,
    EmptyTableError,
    MissingScoresError,
    PerfexError,
    SchemaMismatchError,
    TreeFormatError,
    UndefinedMetricError,
    UnknownClassError,
)
from .evaluation import EvaluationReport, LeafComparison, evaluate_tree
from .explain import (
    ConditionSummary,
    default_phrase,
    leaf_row_mask,
    render,
    summarize_path,
)
from .metrics import MetricSpec, MetricValue, parse_metric
from .splitter import SearchConfig, SplitCandidate
from .synth import (
    CartClassifier,
    GaussianSpec,
    LabeledDataset,
    blob_specs,
    generate_blobs,
    generate_two_gaussian,
    predict_table,
    preset_example2d,
    split_dataset,
    two_gaussian_classifier,
)
from .tree import (
    LeafStats,
    MetaTree,
    StoppingRule,
    assign,
    build_tree,
    deserialize_tree,
    serialize_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "CATEGORICAL",
    "CartClassifier",
    "ClassSet",
    "ConditionSummary",
    "DataFormatError",
    "EmptyTableError",
    "EvaluationReport",
    "Feature",
    "FeatureSchema",
    "GaussianSpec",
    "LabeledDataset",
    "LeafComparison",
    "LeafStats",
    "MetaTree",
    "MetricSpec",
    "MetricValue",
    "MissingScoresError",
    "NUMERIC",
    "PerfexError",
    "PredictionTable",
    "SchemaMismatchError",
    "SearchConfig",
    "SplitCandidate",
    "StoppingRule",
    "TreeFormatError",
    "UndefinedMetricError",
    "UnknownClassError",
    "assign",
    "blob_specs",
    "build_tree",
    "default_phrase",
    "deserialize_tree",
    "evaluate_tree",
    "generate_blobs",
    "generate_two_gaussian",
    "leaf_row_mask",
    "load_table",
    "parse_metric",
    "predict_table",
    "preset_example2d",
    "render",
    "serialize_tree",
    "split_dataset",
    "stratified_split",
    "summarize_path",
    "two_gaussian_classifier",
    "write_csv",
]
