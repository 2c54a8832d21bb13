"""Feature encodings and a deterministic entropy-based CART classifier.

The shapelet transform returns an :class:`~ust.series.UncertainDataset`
whose row ``i`` holds the k uncertain distances from instance ``i`` to the
shapelets.  Those must be turned into plain reals before a standard
classifier can use them.  Two schemes are provided:

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
index, threshold) first-best.  Each node stably sorts every feature once and
scores all cuts with the gain sweep that also ranks shapelet candidates
(``_split_gains``), so tree gains equal the scalar ``entropy_from_counts``
expression bit for bit.  Everything is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DimensionMismatchError
from .series import UncertainDataset, _json_int, _json_real

__all__ = [
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
    "entropy_from_counts",
]


# ---------------------------------------------------------------------------
# entropy and the split-gain sweep (shared with shapelet quality scoring)
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
            ent += _entropy_term(c, total)
    return ent


def _entropy_term(count: int, total: int) -> float:
    p = count / total
    return -p * math.log2(p)


# ``_split_gains`` ranks cuts by an approximation within about
# (2K+2)*4*eps*log2(n) of the exact scalar gain (K classes, eps = 2**-53):
# below 4e-12 for K <= 100 and n <= 2**40.  Every position whose approximate
# gain is within this far larger margin of its row's approximate maximum is
# rescored exactly, so the exact maximum and all of its exact ties are among
# the rescored positions.
_RESCORE_EPS = 1e-9


def _split_gains(
    sorted_labels: np.ndarray,
    valid: np.ndarray,
    class_totals: np.ndarray,
    h_full: float,
) -> np.ndarray:
    """Information gain of cutting each row after each position: (R, n).

    Row ``r`` holds class indices in sorted order; cutting after position
    ``i`` puts the first ``n1 = i + 1`` on the near side.  Every position that
    is ``valid`` and can be its row's maximum holds exactly
    ``(h_full - (n1/n)*entropy_from_counts(near, n1)) - (n2/n)*entropy_from_counts(far, n2)``;
    all other positions are ``-inf``.
    """
    r, n = sorted_labels.shape
    n_classes = len(class_totals)
    one_hot = sorted_labels == np.arange(n_classes)[:, None, None]
    cum = np.cumsum(one_hot, axis=2, dtype=np.int32)  # (K, R, n) near-side counts
    n1 = np.arange(1, n + 1)
    n2 = n - n1

    # approximate pass on acc = n*(h_full - gain), which is smallest at the
    # best cut: size*H(side) = size*log2(size) - sum_k c_k*log2(c_k)
    xl = np.zeros(n + 1)
    xl[1:] = n1 * np.log2(n1)
    acc = xl[n1] + xl[n2]
    for total, ck in zip(class_totals, cum):
        acc = acc - xl[ck]
        acc -= xl[total - ck]
    acc = np.where(valid, acc, np.inf)
    keep = valid & (acc <= acc.min(axis=1, keepdims=True) + n * _RESCORE_EPS)

    # exact pass on the survivors, one math.log2 per distinct (count, size)
    rows, pos = np.nonzero(keep)
    near = cum[:, rows, pos].astype(np.int64)
    far = class_totals[:, None] - near
    keys = np.concatenate([near * (n + 1) + n1[pos], far * (n + 1) + n2[pos]])
    uniq, inv = np.unique(keys.ravel(), return_inverse=True)
    terms = np.array(
        [_entropy_term(*divmod(key, n + 1)) if key > n else 0.0 for key in uniq.tolist()]
    )[inv].reshape(keys.shape)
    h1 = np.zeros(len(rows))
    h2 = np.zeros(len(rows))
    for k in range(n_classes):
        h1 = h1 + terms[k]
        h2 = h2 + terms[n_classes + k]
    gains = np.full((r, n), -np.inf)
    gains[rows, pos] = (h_full - (n1[pos] / n) * h1) - (n2[pos] / n) * h2
    return gains


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

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


def encode_flatten(f: UncertainDataset) -> EncodedMatrix:
    """Row ``i`` becomes ``[best_1..best_k, unc_1..unc_k]`` (length 2k)."""
    features = np.hstack([f.best, f.uncertainty])
    return EncodedMatrix(features, f.labels, "flatten")


def encode_best(f: UncertainDataset) -> EncodedMatrix:
    """Keep the best estimates only (classical, uncertainty-blind features)."""
    return EncodedMatrix(f.best.copy(), f.labels, "best")


def fit_gaussian_stats(train: UncertainDataset) -> GaussianEncodingStats:
    """Column-wise min/max of the training best estimates.

    Fit on the train split only and reuse the result to encode test data;
    test values outside ``[min_j, max_j]`` are not clamped.
    """
    return GaussianEncodingStats(
        tuple(float(x) for x in train.best.min(axis=0)),
        tuple(float(x) for x in train.best.max(axis=0)),
    )


def encode_gaussian(f: UncertainDataset, stats: GaussianEncodingStats) -> EncodedMatrix:
    """Replace each best estimate by its normal density ``exp(-pi*(x - mu_j)**2)``."""
    k = f.series_length
    if stats.k != k:
        raise DimensionMismatchError(f"stats cover {stats.k} columns, matrix has {k}")
    mu = stats.means()
    features = np.exp(-math.pi * (f.best - mu) ** 2)
    return EncodedMatrix(features, f.labels, "gaussian", stats)


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


def _best_node_split(
    features: np.ndarray,
    label_idx: np.ndarray,
    class_counts: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) over all midpoint candidates, or None.

    First-best tie-break: the first maximal gain in (feature, threshold)
    order wins, so earlier features and smaller thresholds are preferred.
    """
    n = features.shape[0]
    cols = np.ascontiguousarray(features.T)
    order = np.argsort(cols, axis=1, kind="stable")
    sv = np.take_along_axis(cols, order, axis=1)
    n_left = np.arange(1, n + 1)
    valid = np.zeros(sv.shape, dtype=bool)
    valid[:, :-1] = sv[:, :-1] != sv[:, 1:]
    valid &= (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
    gains = _split_gains(
        label_idx[order], valid, class_counts, entropy_from_counts(class_counts.tolist(), n)
    )
    feature, i = divmod(int(np.argmax(gains)), n)
    if gains[feature, i] == -np.inf:
        return None
    lo, hi = float(sv[feature, i]), float(sv[feature, i + 1])
    threshold = (lo + hi) / 2.0
    if not lo <= threshold < hi:  # rounding between adjacent floats, or overflow
        threshold = lo
    return feature, threshold


def _grow(
    features: np.ndarray,
    label_idx: np.ndarray,
    classes: Sequence[str],
    params: TreeParams,
) -> TreeNode:
    """Grow the tree depth-first, left before right, with an explicit stack.

    A stack instead of recursion keeps trees deeper than the interpreter's
    recursion limit fittable.
    """
    root = TreeNode()
    stack = [(root, features, label_idx, 0)]
    while stack:
        node, x, y, depth = stack.pop()
        counts = np.bincount(y, minlength=len(classes))
        distribution = {c: int(k) for c, k in zip(classes, counts) if k > 0}
        split = None
        if len(distribution) > 1 and (params.max_depth is None or depth < params.max_depth):
            split = _best_node_split(x, y, counts, params.min_samples_leaf)
        if split is None:
            # ties resolve to the smallest label in canonical (sorted) order
            node.label = classes[int(np.argmax(counts))]
            node.distribution = distribution
            continue
        node.feature, node.threshold = split
        node.left, node.right = TreeNode(), TreeNode()
        mask = x[:, node.feature] <= node.threshold
        stack.append((node.right, x[~mask], y[~mask], depth + 1))
        stack.append((node.left, x[mask], y[mask], depth + 1))
    return root


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
    root = _grow(features, label_idx, classes, params)
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


def _node_from_json(obj: dict, n_features: int, classes: tuple[str, ...]) -> TreeNode:
    if "leaf" in obj:
        label, counts = obj["leaf"], obj["distribution"]
        if label not in classes:
            raise ValueError(f"leaf label {label!r} is not one of the classes")
        if not isinstance(counts, dict) or not set(counts) <= set(classes):
            raise ValueError(f"distribution {counts!r} must map classes to counts")
        distribution = {c: _json_int(k, "distribution count", 1) for c, k in counts.items()}
        return TreeNode(label=label, distribution=distribution)
    return TreeNode(
        feature=_json_int(obj["feature"], "feature", 0, n_features),
        threshold=_json_real(obj["threshold"], "threshold"),
        left=_node_from_json(obj["left"], n_features, classes),
        right=_node_from_json(obj["right"], n_features, classes),
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
    try:
        text = model_to_json(model)
    except RecursionError:  # tree_fit has no depth limit, but JSON encoding recurses per level
        raise ValueError(f"{path}: model tree is too deep to write as JSON") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path: str | Path) -> PipelineModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        stats = None
        if doc["gaussian_stats"] is not None:
            stats = GaussianEncodingStats(
                tuple(doc["gaussian_stats"]["min"]), tuple(doc["gaussian_stats"]["max"])
            )
        params = TreeParams(doc["params"]["max_depth"], doc["params"]["min_samples_leaf"])
        n_features = _json_int(doc["n_features"], "n_features", 0)
        classes = tuple(doc["classes"])
        tree = DecisionTreeModel(
            _node_from_json(doc["tree"], n_features, classes), params, n_features, classes
        )
        return PipelineModel(doc["encoding"], stats, tree)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from None
