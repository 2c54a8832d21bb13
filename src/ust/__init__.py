"""Uncertain shapelet transform: error-propagating time-series classification.

The package models measurements as ``best ± uncertainty`` values, propagates
the uncertainty through a squared-Euclidean dissimilarity, extracts
class-discriminative uncertain shapelets, and classifies the resulting
uncertain feature vectors with a deterministic decision tree.  A CLI wires
the stages together and benchmarks the uncertainty-aware pipeline against
the classical one under a reproducible noise-injection protocol.
"""

from .classify import (
    DecisionTreeModel,
    EncodedMatrix,
    GaussianEncodingStats,
    PipelineModel,
    TreeParams,
    encode_best,
    encode_flatten,
    encode_gaussian,
    entropy_from_counts,
    evaluate,
    fit_gaussian_stats,
    load_model,
    save_model,
    tree_fit,
    tree_predict,
)
from .core import (
    DimensionMismatchError,
    NumericOverflowError,
    UncertainValue,
    UncertainVector,
    u_add,
    u_eq,
    u_lt,
    u_pow,
    u_sub,
    udissim,
)
from .series import (
    DatasetFormatError,
    NoiseSpec,
    UncertainDataset,
    UncertainSeries,
    dataset_std,
    derive_split_seeds,
    inject_noise,
    load_dataset,
    read_feature_csv,
    save_dataset,
    write_feature_csv,
)
from .shapelet import (
    ConfigurationError,
    ExtractionConfig,
    UncertainShapelet,
    extract_shapelets,
    load_shapelets,
    save_shapelets,
    shapelet_transform,
)

__version__ = "0.1.0"

__all__ = [
    "UncertainValue",
    "UncertainVector",
    "u_add",
    "u_sub",
    "u_pow",
    "u_eq",
    "u_lt",
    "udissim",
    "NumericOverflowError",
    "DimensionMismatchError",
    "UncertainSeries",
    "UncertainDataset",
    "NoiseSpec",
    "DatasetFormatError",
    "load_dataset",
    "save_dataset",
    "dataset_std",
    "inject_noise",
    "derive_split_seeds",
    "UncertainShapelet",
    "ExtractionConfig",
    "ConfigurationError",
    "extract_shapelets",
    "shapelet_transform",
    "save_shapelets",
    "load_shapelets",
    "EncodedMatrix",
    "GaussianEncodingStats",
    "TreeParams",
    "DecisionTreeModel",
    "PipelineModel",
    "encode_flatten",
    "encode_best",
    "encode_gaussian",
    "fit_gaussian_stats",
    "tree_fit",
    "tree_predict",
    "evaluate",
    "entropy_from_counts",
    "save_model",
    "load_model",
    "write_feature_csv",
    "read_feature_csv",
]
