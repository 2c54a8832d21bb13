"""Exact work counters computed from outside the program.

Every count is a closed form over the shapes and configurations that the
public ``ust`` functions receive, or a walk over the public fitted tree, so
it repeats exactly and needs no instrumentation inside ``src/``.
"""

from __future__ import annotations

import numpy as np

FLOAT_BYTES = 8


def candidate_lengths(m: int, min_len: int, max_len: int | None) -> range:
    return range(min_len, (m if max_len is None else max_len) + 1)


def candidates(n: int, m: int, min_len: int, max_len: int | None, stride: int) -> int:
    """Σ_l n·⌈(m−l+1)/stride⌉: candidate windows scored by extraction."""
    return sum(n * -(-(m - l + 1) // stride) for l in candidate_lengths(m, min_len, max_len))


def distance_cells(n: int, m: int, min_len: int, max_len: int | None, stride: int) -> int:
    """Σ_l candidates_l·n·(m−l+1)·l: index terms summed by the extraction kernel."""
    return sum(
        candidates(n, m, l, l, stride) * n * (m - l + 1) * l
        for l in candidate_lengths(m, min_len, max_len)
    )


def kernel_bytes(n: int, m: int, min_len: int, max_len: int | None, stride: int) -> int:
    """Computed, not measured: Σ_l 3·8·candidates_l·n·(m−l+1).

    The float64 grids (best and uncertainty accumulators plus one difference
    buffer) that a dense candidate × series × window kernel materialises per
    candidate length.  Blind to chunking and caches.
    """
    return sum(
        3 * FLOAT_BYTES * candidates(n, m, l, l, stride) * n * (m - l + 1)
        for l in candidate_lengths(m, min_len, max_len)
    )


def transform_cells(n: int, m: int, shapelet_lengths: list[int]) -> int:
    """Σ_shapelets n·(m−l+1)·l: index terms summed by one transform call."""
    return sum(n * (m - l + 1) * l for l in shapelet_lengths)


def tree_shape(root) -> tuple[int, int]:
    """(nodes, depth) of a fitted ``ust.classify.TreeNode`` tree."""
    nodes, depth = 0, 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if not node.is_leaf:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth


def split_scans(root, features: np.ndarray) -> int:
    """Σ over internal nodes of n_node·n_features.

    n_node is found by routing the training rows through the fitted tree with
    the prediction rule (``x[feature] <= threshold`` goes left), which is the
    partition the fit itself used.
    """
    n_features = features.shape[1]
    total = 0
    stack = [(root, np.arange(features.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            continue
        total += len(rows) * n_features
        go_left = features[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return total
