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
index, threshold) first-best.  Every feature is stably sorted once per tree,
at the root; each child takes the stable partition of its parent's sorted row
indices by the split, which is the stable sort of the child's rows (the
presorting of SLIQ).  A node scores all cuts with the gain sweep that also
ranks shapelet candidates (``_split_gains``), so tree gains equal the scalar
``entropy_from_counts`` expression bit for bit.  Everything is deterministic.

The model ``tree_fit`` returns carries the encoding and gaussian stats of its
training matrix; it is what ``save_model`` writes and ``load_model`` returns,
and ``tree_predict`` refuses features whose encoding or stats differ.
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
    "DecisionTreeModel",
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


# ``_split_gains`` ranks cuts by ``acc``: 2K+2 values ``x*log2(x) <= n*log2(n)``
# (K classes), each within 3*eps (eps = 2**-53), paired into K+1 sums and folded
# in K steps that round by eps/2 each, so ``acc/n`` is within (2K+2)*4*eps*log2(n)
# of the exact ``h_full - gain``: below 4e-12 for K <= 100 and n <= 2**40.  Every
# position whose approximate gain is within this far larger margin of its row's
# approximate maximum is rescored exactly, so all exact row maxima are rescored.
# Exactly tied gains, which the approximate pass ranks apart by rounding alone,
# thus all reach the exact pass, which keeps the first as the oracle does,
# however many ulps ``np.log2`` is off under the CPU's SIMD dispatch.
_RESCORE_EPS = 1e-9


def _class_index(labels: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted classes and every label's index: the one class order of extraction's and CART's gain folds."""
    classes = tuple(sorted(set(labels)))
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[lab] for lab in labels], dtype=np.int64)


def _split_gains(
    sorted_labels: np.ndarray,
    valid: np.ndarray,
    class_totals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains of the cuts that can be their row's maximum, as ``(rows, pos, gains)`` in row-major order.

    Row ``r`` of ``sorted_labels`` holds class indices in sorted order; cutting
    after position ``i`` puts the first ``n1 = i + 1`` on the near side.  Kept
    cuts are ``valid`` and include all that attain their row's maximum over its
    valid cuts (none for a row without one).  Each kept gain is exactly
    ``(h_full - (n1/n)*entropy_from_counts(near, n1)) - (n2/n)*entropy_from_counts(far, n2)``,
    where ``h_full`` is ``entropy_from_counts(class_totals, n)``.
    """
    r, n = sorted_labels.shape
    n_classes = len(class_totals)
    h_full = entropy_from_counts(class_totals.tolist(), n)
    n1 = np.arange(1, n + 1)
    n2 = n - n1
    # near-side counts: cumulative for all classes but the last, which has the rest
    cum = np.cumsum(sorted_labels == np.arange(n_classes - 1)[:, None, None], axis=2, dtype=np.int32)
    last = n1 - cum.sum(axis=0, dtype=np.int32)

    # approximate pass on acc = n*(h_full - gain), which is smallest at the
    # best cut: size*H(side) = size*log2(size) - sum_k c_k*log2(c_k), one
    # lookup per class in its table xl[c] + xl[total - c]
    xl = np.zeros(n + 1)
    xl[1:] = n1 * np.log2(n1)
    acc = np.tile(xl[n1] + xl[n2], (r, 1))
    for total, ck in zip(class_totals.tolist(), [*cum, last]):
        acc -= (xl[: total + 1] + xl[total::-1])[ck]
    np.putmask(acc, ~valid, np.inf)
    # ``valid &``: a row with no valid cut has an infinite minimum that every position would meet
    keep = valid & (acc <= acc.min(axis=1, keepdims=True) + n * _RESCORE_EPS)

    # exact pass on the survivors, one math.log2 per distinct (count, size)
    rows, pos = np.nonzero(keep)
    near = np.concatenate([cum[:, rows, pos], last[None, rows, pos]], dtype=np.int64)
    far = class_totals[:, None] - near
    keys = np.concatenate([near * (n + 1) + n1[pos], far * (n + 1) + n2[pos]])
    uniq, inv = np.unique(keys.ravel(), return_inverse=True)
    terms = np.array(
        [_entropy_term(*divmod(key, n + 1)) if key > n else 0.0 for key in uniq.tolist()]
    )[inv].reshape(keys.shape)
    h1, h2 = np.zeros((2, len(rows)))
    for k in range(n_classes):
        h1 = h1 + terms[k]
        h2 = h2 + terms[n_classes + k]
    return rows, pos, (h_full - (n1[pos] / n) * h1) - (n2[pos] / n) * h2


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
    """A fitted tree plus the encoding (and gaussian stats) of the features it was fitted on."""

    root: TreeNode
    params: TreeParams
    n_features: int
    classes: tuple[str, ...]
    encoding: str
    stats: GaussianEncodingStats | None


def _best_node_split(
    cols: np.ndarray,
    label_idx: np.ndarray,
    order: np.ndarray,
    class_counts: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) over all midpoint candidates, or None.

    Row ``f`` of ``order`` lists the node's rows by ascending ``cols[f]``.  The
    first maximal gain in (feature, threshold) order wins, so earlier features
    and smaller thresholds are preferred.
    """
    n = order.shape[1]
    sv = np.take_along_axis(cols, order, axis=1)
    n_left = np.arange(1, n + 1)
    valid = np.zeros(sv.shape, dtype=bool)
    valid[:, :-1] = sv[:, :-1] != sv[:, 1:]
    valid &= (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
    rows, pos, gains = _split_gains(label_idx[order], valid, class_counts)
    if not len(gains):
        return None
    best = int(np.argmax(gains))  # kept cuts come row-major, i.e. in (feature, threshold) order
    feature, i = int(rows[best]), int(pos[best])
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

    Each column is sorted once, at the root; a child's ``order`` is the stable
    partition of its parent's by the split.  A stack instead of recursion keeps
    trees deeper than the interpreter's recursion limit fittable.
    """
    cols = np.ascontiguousarray(features.T)
    root = TreeNode()
    stack = [(root, np.argsort(cols, axis=1, kind="stable"), np.bincount(label_idx, minlength=len(classes)), 0)]
    while stack:
        node, order, counts, depth = stack.pop()
        distribution = {c: int(k) for c, k in zip(classes, counts) if k > 0}
        growable = len(distribution) > 1 and (params.max_depth is None or depth < params.max_depth)
        split = _best_node_split(cols, label_idx, order, counts, params.min_samples_leaf) if growable else None
        if split is None:
            # ties resolve to the smallest label in canonical (sorted) order
            node.label, node.distribution = classes[int(np.argmax(counts))], distribution
            continue
        node.feature, node.threshold = split
        node.left, node.right = TreeNode(), TreeNode()
        keep = (cols[node.feature] <= node.threshold)[order]
        left = np.bincount(label_idx[order[0, keep[0]]], minlength=len(classes))
        stack.append((node.right, order[~keep].reshape(len(cols), -1), counts - left, depth + 1))
        stack.append((node.left, order[keep].reshape(len(cols), -1), left, depth + 1))
    return root


def tree_fit(e: EncodedMatrix, params: TreeParams = TreeParams()) -> DecisionTreeModel:
    """Fit a greedy entropy-gain CART on an encoded matrix.

    Single-class data yields a degenerate single-leaf model.
    """
    if e.labels is None:
        raise ValueError("training matrix must carry labels")
    features = np.asarray(e.features, dtype=np.float64)
    if features.ndim != 2 or len(features) != len(e.labels):
        raise DimensionMismatchError(f"features of shape {features.shape} for {len(e.labels)} labels, need one row each")
    if features.shape[0] < 1:
        raise ValueError("cannot fit a tree on an empty matrix")
    classes, label_idx = _class_index(e.labels)
    root = _grow(features, label_idx, classes, params)
    return DecisionTreeModel(root, params, features.shape[1], classes, e.encoding, e.stats)


def tree_predict(model: DecisionTreeModel, e: EncodedMatrix) -> list[str]:
    """Route each row, encoded as the training matrix was, to a leaf; one label per row."""
    if (e.encoding, e.stats) != (model.encoding, model.stats):
        raise ValueError(f"features are {e.encoding}-encoded, model expects {model.encoding} with its own stats")
    features = np.asarray(e.features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise DimensionMismatchError(f"features of shape {features.shape}, model expects {model.n_features} columns")
    out = np.empty(features.shape[0], dtype=object)
    stack = [(model.root, np.arange(features.shape[0]))]  # explicit, so depth is not bounded by recursion
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.label
            continue
        go_left = features[rows, node.feature] <= node.threshold
        stack += [(node.left, rows[go_left]), (node.right, rows[~go_left])]
    return out.tolist()


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


def model_to_json(model: DecisionTreeModel) -> str:
    doc = {
        "encoding": model.encoding,
        "gaussian_stats": (
            None
            if model.stats is None
            else {"min": list(model.stats.minimum), "max": list(model.stats.maximum)}
        ),
        "n_features": model.n_features,
        "classes": list(model.classes),
        "params": {
            "max_depth": model.params.max_depth,
            "min_samples_leaf": model.params.min_samples_leaf,
        },
        "tree": _node_to_json(model.root),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def save_model(model: DecisionTreeModel, path: str | Path) -> None:
    try:
        text = model_to_json(model)
    except RecursionError:  # tree_fit has no depth limit, but JSON encoding recurses per level
        raise ValueError(f"{path}: model tree is too deep to write as JSON") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path: str | Path) -> DecisionTreeModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        encoding = doc["encoding"]
        if encoding not in ("best", "flatten", "gaussian"):
            raise ValueError(f"encoding must be best, flatten or gaussian, got {encoding!r}")
        n_features = _json_int(doc["n_features"], "n_features", 0)
        raw_stats = doc["gaussian_stats"]
        if (raw_stats is not None) != (encoding == "gaussian"):
            raise ValueError("gaussian_stats must be given exactly when the encoding is gaussian")
        stats = None
        if raw_stats is not None:
            lo, hi = ([_json_real(x, f"gaussian_stats.{k}") for x in raw_stats[k]] for k in ("min", "max"))
            stats = GaussianEncodingStats(tuple(lo), tuple(hi))
            if stats.k != n_features:
                raise ValueError(f"gaussian_stats cover {stats.k} columns, model has {n_features} features")
        classes = doc["classes"]
        if type(classes) is not list or not all(type(c) is str and c for c in classes):
            raise ValueError(f"classes must be a list of non-empty strings, got {classes!r}")
        if len(set(classes)) < len(classes):
            raise ValueError(f"classes must be distinct, got {classes!r}")
        classes = tuple(classes)
        max_depth = doc["params"]["max_depth"]
        params = TreeParams(
            None if max_depth is None else _json_int(max_depth, "params.max_depth", 0),
            _json_int(doc["params"]["min_samples_leaf"], "params.min_samples_leaf", 1),
        )
        root = _node_from_json(doc["tree"], n_features, classes)
        return DecisionTreeModel(root, params, n_features, classes, encoding, stats)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from None
