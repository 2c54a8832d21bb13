"""The package surface: ``ust.__all__`` is the concatenation of its modules' lists."""

import ust
from ust import classify, core, series, shapelet

PACKAGE_NAMES = {
    # ust.core
    "UncertainValue", "UncertainVector", "NumericOverflowError", "DimensionMismatchError",
    "u_add", "u_sub", "u_pow", "u_eq", "u_lt", "udissim",
    # ust.series
    "UncertainSeries", "UncertainDataset", "NoiseSpec", "DatasetFormatError", "load_dataset",
    "save_dataset", "write_feature_csv", "read_feature_csv", "dataset_std", "inject_noise",
    "derive_split_seeds",
    # ust.shapelet
    "UncertainShapelet", "ExtractionConfig", "ConfigurationError", "extract_shapelets",
    "shapelet_transform", "save_shapelets", "load_shapelets",
    # ust.classify
    "EncodedMatrix", "GaussianEncodingStats", "TreeParams", "DecisionTreeModel", "encode_flatten",
    "encode_best", "fit_gaussian_stats", "encode_gaussian", "tree_fit", "tree_predict", "evaluate",
    "save_model", "load_model", "entropy_from_counts",
}


def test_all_is_the_module_lists_without_duplicates():
    assert ust.__all__ == core.__all__ + series.__all__ + shapelet.__all__ + classify.__all__
    assert len(set(ust.__all__)) == len(ust.__all__)


def test_every_exported_name_resolves():
    assert [name for name in ust.__all__ if not hasattr(ust, name)] == []


def test_exports_are_exactly_the_package_names():
    # a module list that widens (or narrows) the package by accident fails here
    assert len(PACKAGE_NAMES) == 42
    assert set(ust.__all__) == PACKAGE_NAMES
