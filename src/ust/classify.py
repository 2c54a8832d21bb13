"""Feature encodings and a deterministic entropy-based CART classifier.

An uncertain feature matrix (one uncertain distance per instance and
shapelet) must be turned into plain reals before a standard classifier can
use it.  Two schemes are provided:

* flatten: each row becomes ``[best_1..best_k, unc_1..unc_k]`` so the
  uncertainties are ordinary features.  Lossless.
* gaussian: each entry becomes the normal density of its best estimate under
  mean ``(max_j + min_j) / 2`` and standard deviation ``1/sqrt(2*pi)``, where
  ``min_j``/``max_j`` are the train-split extremes of column ``j``.  With
  that deviation the density reduces to ``exp(-pi * (x - mu)**2)``, so values
  lie in ``(0, 1]`` and peak at exactly 1.  Only best estimates enter; the
  uncertainties are discarded.

A third trivial scheme, best-only, drops the uncertainties entirely and is
what the classical (uncertainty-blind) pipeline uses.

The classifier is a greedy binary CART over the encoded reals: splits
maximize base-2 information gain, thresholds are midpoints between
consecutive sorted unique feature values, ties break on (gain, feature
index, threshold) first-best.  Everything is deterministic.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DimensionMismatchError, UncertainVector
from .series import format_real

__all__ = [
    "UncertainFeatureMatrix",
    "EncodedMatrix",
    "GaussianEncodingStats",
    "TreeParams",
    "TreeNode",
    "DecisionTreeModel",
    "PipelineModel",
    "encode_flatten",
    "encode_best",
    "fit_gaussian_stats",
    "encode_gaussian",
    "tree_fit",
    "tree_predict",
    "evaluate",
    "save_model",
    "load_model",
    "write_feature_csv",
    "read_feature_csv",
    "entropy_from_counts",
]


# ---------------------------------------------------------------------------
# entropy (shared with shapelet quality scoring)
# ---------------------------------------------------------------------------

def entropy_from_counts(counts: Sequence[int], total: int) -> float:
    """Base-2 Shannon entropy of a label distribution given per-class counts.

    ``counts`` must follow the canonical (sorted-label) class order; the fold
    over classes is left-to-right so results are bit-reproducible.
    """
    if total <= 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent += -p * math.log2(p)
    return ent


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class UncertainFeatureMatrix:
    """Per-instance uncertain distances to each shapelet, plus labels."""

    __slots__ = ("best", "uncertainty", "labels")

    def __init__(
        self,
        best: np.ndarray,
        uncertainty: np.ndarray,
        labels: Sequence[str] | None,
    ) -> None:
        best = np.asarray(best, dtype=np.float64)
        uncertainty = np.asarray(uncertainty, dtype=np.float64)
        if best.ndim != 2 or best.shape != uncertainty.shape:
            raise DimensionMismatchError(
                f"best {best.shape} and uncertainty {uncertainty.shape} must be equal 2-d shapes"
            )
        if best.shape[1] < 1:
            raise ValueError("feature matrix needs at least one column")
        if labels is not None and len(labels) != best.shape[0]:
            raise DimensionMismatchError(
                f"{len(labels)} labels for {best.shape[0]} rows"
            )
        self.best = best
        self.uncertainty = uncertainty
        self.labels = list(labels) if labels is not None else None

    @property
    def n_instances(self) -> int:
        return self.best.shape[0]

    @property
    def k(self) -> int:
        return self.best.shape[1]

    def row(self, i: int) -> UncertainVector:
        return UncertainVector(self.best[i], self.uncertainty[i])


@dataclass(frozen=True)
class GaussianEncodingStats:
    """Train-split distance extremes per shapelet column."""

    minimum: tuple[float, ...]
    maximum: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.minimum) != len(self.maximum):
            raise DimensionMismatchError("min and max must have the same length")
        for lo, hi in zip(self.minimum, self.maximum):
            if lo > hi:
                raise ValueError(f"column minimum {lo} exceeds maximum {hi}")

    @property
    def k(self) -> int:
        return len(self.minimum)

    def means(self) -> np.ndarray:
        return (np.asarray(self.maximum) + np.asarray(self.minimum)) / 2.0


@dataclass(frozen=True)
class EncodedMatrix:
    """Real-valued training/evaluation matrix produced by an encoding."""

    features: np.ndarray
    labels: list[str] | None
    encoding: str  # "best" | "flatten" | "gaussian"
    stats: GaussianEncodingStats | None = None


def encode_flatten(f: UncertainFeatureMatrix) -> EncodedMatrix:
    """Row ``i`` becomes ``[best_1..best_k, unc_1..unc_k]`` (length 2k)."""
    features = np.hstack([f.best, f.uncertainty])
    return EncodedMatrix(features, list(f.labels) if f.labels else f.labels, "flatten")


def encode_best(f: UncertainFeatureMatrix) -> EncodedMatrix:
    """Keep the best estimates only (classical, uncertainty-blind features)."""
    return EncodedMatrix(f.best.copy(), list(f.labels) if f.labels else f.labels, "best")


def fit_gaussian_stats(train: UncertainFeatureMatrix) -> GaussianEncodingStats:
    """Column-wise min/max of the training best estimates.

    Fit on the train split only and reuse the result to encode test data;
    test values outside ``[min_j, max_j]`` are not clamped.
    """
    if train.n_instances < 1:
        raise ValueError("cannot fit gaussian stats on an empty matrix")
    return GaussianEncodingStats(
        tuple(float(x) for x in train.best.min(axis=0)),
        tuple(float(x) for x in train.best.max(axis=0)),
    )


def encode_gaussian(f: UncertainFeatureMatrix, stats: GaussianEncodingStats) -> EncodedMatrix:
    """Replace each best estimate by its normal density ``exp(-pi*(x - mu_j)**2)``."""
    if stats.k != f.k:
        raise DimensionMismatchError(f"stats cover {stats.k} columns, matrix has {f.k}")
    mu = stats.means()
    features = np.exp(-math.pi * (f.best - mu) ** 2)
    return EncodedMatrix(features, list(f.labels) if f.labels else f.labels, "gaussian", stats)


# ---------------------------------------------------------------------------
# CART
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeParams:
    """max_depth=None grows until purity; min_samples_leaf bounds child size."""

    max_depth: int | None = None
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: str | None = None
    distribution: dict[str, int] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass
class DecisionTreeModel:
    root: TreeNode
    params: TreeParams
    n_features: int
    classes: tuple[str, ...]


def _majority_label(counts: dict[str, int], classes: Sequence[str]) -> str:
    # ties resolve to the smallest label in canonical (sorted) order
    best_label = None
    best_count = -1
    for label in classes:
        c = counts.get(label, 0)
        if c > best_count:
            best_label, best_count = label, c
    assert best_label is not None
    return best_label


def _best_node_split(
    features: np.ndarray,
    label_idx: np.ndarray,
    n_classes: int,
    min_samples_leaf: int,
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over all midpoint candidates, or None.

    First-best tie-break: strictly greater gain wins, so earlier features and
    smaller thresholds are preferred on ties.
    """
    n = features.shape[0]
    parent_counts = np.bincount(label_idx, minlength=n_classes)
    parent_ent = entropy_from_counts(parent_counts.tolist(), n)
    best: tuple[float, int, float] | None = None
    for j in range(features.shape[1]):
        col = features[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sl = label_idx[order]
        cum = np.zeros(n_classes, dtype=np.int64)
        for i in range(n - 1):
            cum[sl[i]] += 1
            if sv[i] == sv[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            left_counts = cum.tolist()
            right_counts = (parent_counts - cum).tolist()
            gain = (
                parent_ent
                - (n_left / n) * entropy_from_counts(left_counts, n_left)
                - (n_right / n) * entropy_from_counts(right_counts, n_right)
            )
            if best is None or gain > best[0]:
                threshold = (float(sv[i]) + float(sv[i + 1])) / 2.0
                best = (gain, j, threshold)
    return best


def _grow(
    features: np.ndarray,
    label_idx: np.ndarray,
    labels: list[str],
    classes: Sequence[str],
    params: TreeParams,
    depth: int,
) -> TreeNode:
    counts = {c: 0 for c in classes}
    for lab in labels:
        counts[lab] += 1
    distribution = {c: counts[c] for c in classes if counts[c] > 0}
    if len(distribution) == 1 or (params.max_depth is not None and depth >= params.max_depth):
        return TreeNode(label=_majority_label(counts, classes), distribution=distribution)

    split = _best_node_split(features, label_idx, len(classes), params.min_samples_leaf)
    if split is None:
        return TreeNode(label=_majority_label(counts, classes), distribution=distribution)

    _, feature, threshold = split
    mask = features[:, feature] <= threshold
    left = _grow(
        features[mask],
        label_idx[mask],
        [lab for lab, keep in zip(labels, mask) if keep],
        classes,
        params,
        depth + 1,
    )
    right = _grow(
        features[~mask],
        label_idx[~mask],
        [lab for lab, keep in zip(labels, mask) if not keep],
        classes,
        params,
        depth + 1,
    )
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def tree_fit(e: EncodedMatrix, params: TreeParams = TreeParams()) -> DecisionTreeModel:
    """Fit a greedy entropy-gain CART on an encoded matrix.

    Single-class data yields a degenerate single-leaf model.
    """
    if e.labels is None:
        raise ValueError("training matrix must carry labels")
    features = np.asarray(e.features, dtype=np.float64)
    if features.shape[0] < 1:
        raise ValueError("cannot fit a tree on an empty matrix")
    classes = tuple(sorted(set(e.labels)))
    class_to_idx = {c: i for i, c in enumerate(classes)}
    label_idx = np.array([class_to_idx[lab] for lab in e.labels], dtype=np.int64)
    root = _grow(features, label_idx, list(e.labels), classes, params, 0)
    return DecisionTreeModel(root, params, features.shape[1], classes)


def tree_predict(model: DecisionTreeModel, e: EncodedMatrix) -> list[str]:
    """Route each row to a leaf; returns one label per row."""
    features = np.asarray(e.features, dtype=np.float64)
    if features.shape[0] == 0:
        return []
    if features.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"matrix has {features.shape[1]} features, model expects {model.n_features}"
        )
    out = []
    for row in features:
        node = model.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.label)
    return out


def evaluate(predictions: Sequence[str], truth: Sequence[str]) -> float:
    """Fraction of exact label matches."""
    if len(predictions) != len(truth):
        raise DimensionMismatchError(
            f"{len(predictions)} predictions vs {len(truth)} truth labels"
        )
    if not truth:
        raise ValueError("cannot evaluate empty prediction sequences")
    hits = sum(1 for p, t in zip(predictions, truth) if p == t)
    return hits / len(truth)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineModel:
    """A fitted classifier plus the encoding needed to reproduce its inputs."""

    encoding: str
    stats: GaussianEncodingStats | None
    tree: DecisionTreeModel


def _node_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"leaf": node.label, "distribution": node.distribution}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _node_from_json(obj: dict) -> TreeNode:
    if "leaf" in obj:
        return TreeNode(label=obj["leaf"], distribution=dict(obj["distribution"]))
    return TreeNode(
        feature=int(obj["feature"]),
        threshold=float(obj["threshold"]),
        left=_node_from_json(obj["left"]),
        right=_node_from_json(obj["right"]),
    )


def model_to_json(model: PipelineModel) -> str:
    doc = {
        "encoding": model.encoding,
        "gaussian_stats": (
            None
            if model.stats is None
            else {"min": list(model.stats.minimum), "max": list(model.stats.maximum)}
        ),
        "n_features": model.tree.n_features,
        "classes": list(model.tree.classes),
        "params": {
            "max_depth": model.tree.params.max_depth,
            "min_samples_leaf": model.tree.params.min_samples_leaf,
        },
        "tree": _node_to_json(model.tree.root),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def save_model(model: PipelineModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model) + "\n")


def load_model(path: str | Path) -> PipelineModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        stats = None
        if doc["gaussian_stats"] is not None:
            stats = GaussianEncodingStats(
                tuple(doc["gaussian_stats"]["min"]), tuple(doc["gaussian_stats"]["max"])
            )
        params = TreeParams(doc["params"]["max_depth"], doc["params"]["min_samples_leaf"])
        tree = DecisionTreeModel(
            _node_from_json(doc["tree"]), params, int(doc["n_features"]), tuple(doc["classes"])
        )
        return PipelineModel(doc["encoding"], stats, tree)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# feature matrix exchange (CSV)
# ---------------------------------------------------------------------------

def write_feature_csv(f: UncertainFeatureMatrix, path: str | Path) -> None:
    """Write ``label,f1..f2k`` rows: best estimates first, then uncertainties.

    The layout is the flatten encoding, which is lossless, so the uncertain
    matrix can be reconstructed exactly by :func:`read_feature_csv`.
    """
    if f.labels is None:
        raise ValueError("feature CSV requires labels")
    k = f.k
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"f{j + 1}" for j in range(2 * k)])
        for i in range(f.n_instances):
            row = [f.labels[i]]
            row += [format_real(x) for x in f.best[i]]
            row += [format_real(x) for x in f.uncertainty[i]]
            writer.writerow(row)


def read_feature_csv(path: str | Path) -> UncertainFeatureMatrix:
    path = str(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty feature file") from None
        if not header or header[0] != "label" or (len(header) - 1) % 2 != 0 or len(header) < 3:
            raise ValueError(f"{path}: expected header 'label,f1..f2k'")
        k = (len(header) - 1) // 2
        labels: list[str] = []
        best_rows: list[list[float]] = []
        unc_rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2 * k + 1:
                raise ValueError(f"{path}:{line_no}: expected {2 * k + 1} fields, got {len(row)}")
            labels.append(row[0])
            try:
                values = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if any(not np.isfinite(v) for v in values):
                raise ValueError(f"{path}:{line_no}: non-finite feature value")
            if any(v < 0 for v in values[k:]):
                raise ValueError(f"{path}:{line_no}: negative uncertainty")
            best_rows.append(values[:k])
            unc_rows.append(values[k:])
    if not labels:
        raise ValueError(f"{path}: no feature rows")
    return UncertainFeatureMatrix(np.array(best_rows), np.array(unc_rows), labels)
