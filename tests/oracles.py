"""Independent scalar reference implementations used to check the library.

Everything here is written against the definitions directly, in plain Python
loops, with no reuse of the library's batch kernels or sweep logic.  The
shared conventions (tie-breaks, canonical class order) are part of the
contract being checked and are therefore implemented twice on purpose.
"""

from __future__ import annotations

import csv
import math


def sq_euclidean(a, b) -> float:
    """Exact-summation squared Euclidean distance (independent oracle)."""
    return math.fsum((x - y) ** 2 for x, y in zip(a, b))


def dissim(vb, vu, ub, uu) -> tuple[float, float]:
    """Closed-form uncertain dissimilarity on plain float lists."""
    best = 0.0
    unc = 0.0
    for i in range(len(vb)):
        d = vb[i] - ub[i]
        best += d * d
        unc += abs(d) * (vu[i] + uu[i])
    return best, 2.0 * unc


def min_dissim(cand_b, cand_u, ser_b, ser_u) -> tuple[float, float]:
    """Exhaustive window scan; lexicographic (best, uncertainty) minimum."""
    l = len(cand_b)
    best = None
    for j in range(len(ser_b) - l + 1):
        d = dissim(cand_b, cand_u, ser_b[j : j + l], ser_u[j : j + l])
        if best is None or d < best:
            best = d
    return best


def entropy(counts, total) -> float:
    if total <= 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent += -p * math.log2(p)
    return ent


def split_quality(dist_pairs, labels, class_order):
    """Best (gain, margin, threshold) over every observed threshold value.

    ``dist_pairs`` are (best, uncertainty) tuples; thresholds are the
    distinct observed pairs in ascending lexicographic order; an instance
    joins the near side when its pair is <= the threshold.  Ties on gain
    prefer the larger margin, then the smaller threshold.
    """
    n = len(dist_pairs)
    idx = {c: i for i, c in enumerate(class_order)}
    total = [0] * len(class_order)
    for lab in labels:
        total[idx[lab]] += 1
    h = entropy(total, n)

    best = None  # (gain, margin, threshold, n1)
    for thr in sorted(set(dist_pairs)):
        near = [0] * len(class_order)
        n1 = 0
        far_bests = []
        for pair, lab in zip(dist_pairs, labels):
            if pair <= thr:
                near[idx[lab]] += 1
                n1 += 1
            else:
                far_bests.append(pair[0])
        n2 = n - n1
        far = [t - c for t, c in zip(total, near)]
        gain = h - (n1 / n) * entropy(near, n1) - (n2 / n) * entropy(far, n2)
        margin = min(far_bests) - thr[0] if far_bests else 0.0
        if best is None or gain > best[0] or (gain == best[0] and margin > best[1]):
            best = (gain, margin, thr, n1)
    return best


def overlaps(o1, l1, o2, l2) -> bool:
    return o1 < o2 + l2 and o2 < o1 + l1


def extract(bests, uncs, labels, min_len, max_len, k, stride=1):
    """Exhaustive candidate scoring, documented tie-break, greedy pruning.

    ``bests``/``uncs`` are lists of float lists.  Returns the selected
    candidates as (length, source, offset, quality, thr_best, thr_unc)
    tuples in final output order.
    """
    class_order = sorted(set(labels))
    scored = []
    for l in range(min_len, max_len + 1):
        for s in range(len(bests)):
            for o in range(0, len(bests[s]) - l + 1, stride):
                cb = bests[s][o : o + l]
                cu = uncs[s][o : o + l]
                dist_pairs = [
                    min_dissim(cb, cu, bests[t], uncs[t]) for t in range(len(bests))
                ]
                gain, margin, thr, _ = split_quality(dist_pairs, labels, class_order)
                scored.append((l, s, o, gain, margin, thr))

    scored.sort(key=lambda c: (-c[3], -c[4], c[0], c[1], c[2]))
    selected = []
    for l, s, o, gain, margin, thr in scored:
        if any(src == s and overlaps(o, l, o2, l2) for l2, src, o2, *_ in selected):
            continue
        selected.append((l, s, o, gain, thr[0], thr[1]))
        if len(selected) == k:
            break
    return selected


def transform(bests, uncs, shapelet_values) -> list[list[tuple[float, float]]]:
    """Entry-by-entry recomputation of the distance feature matrix."""
    return [
        [min_dissim(cb, cu, bests[i], uncs[i]) for cb, cu in shapelet_values]
        for i in range(len(bests))
    ]


def grow_tree(rows, labels, max_depth, min_samples_leaf, classes=None, depth=0):
    """Greedy entropy CART as the nested dicts of a serialized model's "tree".

    Each feature is stably sorted; every cut between two different
    neighbouring values that leaves ``min_samples_leaf`` rows on both sides
    is scored, and only a strictly greater gain replaces the best so far.
    The threshold is the midpoint of the two values, or the lower value when
    the midpoint does not fall strictly below the upper one.
    """
    if classes is None:
        classes = sorted(set(labels))
    counts = [labels.count(c) for c in classes]
    distribution = {c: k for c, k in zip(classes, counts) if k > 0}
    leaf = {"leaf": classes[counts.index(max(counts))], "distribution": distribution}
    if len(distribution) == 1 or (max_depth is not None and depth >= max_depth):
        return leaf

    n = len(rows)
    h = entropy(counts, n)
    best = None  # (gain, feature, threshold)
    for j in range(len(rows[0])):
        order = sorted(range(n), key=lambda i: rows[i][j])
        for n_left in range(1, n):
            lo, hi = rows[order[n_left - 1]][j], rows[order[n_left]][j]
            if lo == hi or n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                continue
            left = [labels[i] for i in order[:n_left]]
            near = [left.count(c) for c in classes]
            far = [t - c for t, c in zip(counts, near)]
            n_right = n - n_left
            gain = h - (n_left / n) * entropy(near, n_left) - (n_right / n) * entropy(far, n_right)
            if best is None or gain > best[0]:
                threshold = (lo + hi) / 2.0
                if not lo <= threshold < hi:
                    threshold = lo
                best = (gain, j, threshold)
    if best is None:
        return leaf

    _, j, threshold = best
    go_left = [rows[i][j] <= threshold for i in range(n)]

    def child(side):
        keep = [i for i in range(n) if go_left[i] == side]
        return grow_tree(
            [rows[i] for i in keep], [labels[i] for i in keep],
            max_depth, min_samples_leaf, classes, depth + 1,
        )

    return {"feature": j, "threshold": threshold, "left": child(True), "right": child(False)}


def walk_tree(root, rows) -> list:
    """One leaf label per row, each row routed alone from ``root`` (left when ``x <= threshold``)."""
    out = []
    for row in rows:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.label)
    return out


# ---------------------------------------------------------------------------
# text tables: the per-token reader and per-value writers
# ---------------------------------------------------------------------------

def _table_reals(at, tokens, first_col, nonneg=False):
    out = []
    for col, tok in enumerate(tokens, start=first_col):
        try:
            value = float(tok)
        except ValueError:
            raise ValueError(f"{at}: column {col}: not a decimal real: {tok!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{at}: column {col}: value must be finite, got {tok!r}")
        if nonneg and value < 0:
            raise ValueError(f"{at}: column {col}: negative uncertainty {tok}, must be >= 0")
        out.append(value)
    return out


def _tsv_rows(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(line_no, line.rstrip("\r\n")) for line_no, line in enumerate(fh, start=1)]
    return [(line_no, line.split("\t")) for line_no, line in lines if line]


def read_tsv(values_path, uncertainty_path=None):
    """``(labels, best rows, uncertainty rows)`` of a values TSV and optional uncertainty TSV.

    Every token is parsed on its own, row by row; the first bad row or token
    raises ``ValueError`` with the ``<file>:<line>: column <c>: ...`` message.
    """
    vpath = str(values_path)
    vrows = _tsv_rows(vpath)
    if not vrows:
        raise ValueError(f"{vpath}: no instances found")
    labels, bests = [], []
    m = len(vrows[0][1]) - 1
    for line_no, fields in vrows:
        if len(fields) < 2:
            raise ValueError(f"{vpath}:{line_no}: expected a label followed by at least one value")
        if not fields[0]:
            raise ValueError(f"{vpath}:{line_no}: column 1: missing label")
        if len(fields) - 1 != m:
            raise ValueError(f"{vpath}:{line_no}: ragged row: {len(fields) - 1} values, expected {m}")
        labels.append(fields[0])
        bests.append(_table_reals(f"{vpath}:{line_no}", fields[1:], 2))
    if uncertainty_path is None:
        return labels, bests, [[0.0] * m for _ in bests]
    upath = str(uncertainty_path)
    urows = _tsv_rows(upath)
    if len(urows) != len(vrows):
        raise ValueError(f"{upath}: {len(urows)} rows but {vpath} has {len(vrows)}: shape mismatch")
    uncs = []
    for line_no, fields in urows:
        if len(fields) != m:
            raise ValueError(f"{upath}:{line_no}: {len(fields)} values, expected {m}: shape mismatch")
        uncs.append(_table_reals(f"{upath}:{line_no}", fields, 1, nonneg=True))
    return labels, bests, uncs


def read_feature_csv(path):
    """``(labels, best rows, uncertainty rows)`` of a feature CSV, token by token like :func:`read_tsv`."""
    path = str(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    k = (len(rows[0]) - 1) // 2 if rows else 0
    if len(rows) < 2 or k < 1 or rows[0] != ["label"] + [f"f{j + 1}" for j in range(2 * k)]:
        raise ValueError(f"{path}: expected header 'label,f1..f2k' and at least one row")
    bests, uncs = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        at = f"{path}:{line_no}"
        if len(row) != 2 * k + 1:
            raise ValueError(f"{at}: expected {2 * k + 1} fields, got {len(row)}")
        bests.append(_table_reals(at, row[1 : k + 1], 2))
        uncs.append(_table_reals(at, row[k + 1 :], k + 2, nonneg=True))
    labels = [row[0] for row in rows[1:]]
    for i, label in enumerate(labels):  # the labels a dataset refuses
        if label == "":
            raise ValueError(f"{path}: instance {i} has no label: dataset instances must be labeled")
        if "\t" in label or "\r" in label or "\n" in label:
            raise ValueError(f"{path}: instance {i} has label {label!r}: want a str without tab/CR/LF")
    return labels, bests, uncs


def write_tsv(labels, bests, uncs, values_path, uncertainty_path):
    """A values TSV and an uncertainty TSV, every real written by ``format(x, ".17g")``.

    The values file starts with a byte-order mark exactly when the first label starts with U+FEFF.
    """
    with open(values_path, "w", encoding="utf-8", newline="") as fh:
        if labels[0].startswith("\ufeff"):
            fh.write("\ufeff")
        for label, row in zip(labels, bests):
            fh.write("\t".join([label] + [format(float(x), ".17g") for x in row]) + "\n")
    with open(uncertainty_path, "w", encoding="utf-8", newline="") as fh:
        for row in uncs:
            fh.write("\t".join(format(float(x), ".17g") for x in row) + "\n")


def write_feature_csv(labels, bests, uncs, path):
    """A feature CSV written row by row through ``csv.writer``."""
    k = len(bests[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"f{j + 1}" for j in range(2 * k)])
        for label, best, unc in zip(labels, bests, uncs):
            writer.writerow([label] + [format(float(x), ".17g") for x in list(best) + list(unc)])
