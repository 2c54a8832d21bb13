"""Uncertain-shapelet extraction and the shapelet transform.

A shapelet candidate is a contiguous window of a training series.  Its
quality is the best information gain achievable by thresholding the
distances from the candidate to every training series, where distance is
the window-minimizing uncertain dissimilarity (:func:`ust.core.udissim`)
under the uncertain total order.  Extraction scores every candidate in the
configured length range, prunes overlapping candidates from the same source
series, and keeps the top k by quality.

The batch scorer reproduces a scalar brute force bit for bit.  Candidates are
the prefixes of stems (a source and a start offset).  One kernel grows the
window sums of a block of stems by one index-ascending term per length, as
``udissim`` folds them, and the block is scored at every length it reaches.
Split gains come from the sweep shared with the decision tree, which ranks
every cut approximately and rescores the cuts that can be a row's maximum with
the scalar expression of :func:`ust.classify.entropy_from_counts`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .classify import _split_gains, entropy_from_counts
from .core import DimensionMismatchError, NumericOverflowError, UncertainValue, UncertainVector
from .series import UncertainDataset, _json_int, _json_real

__all__ = [
    "UncertainShapelet",
    "ExtractionConfig",
    "ConfigurationError",
    "extract_shapelets",
    "shapelet_transform",
    "save_shapelets",
    "load_shapelets",
    "shapelets_to_json",
    "shapelets_from_json",
]

DEFAULT_MIN_LEN = 3
MAX_DEFAULT_K = 200


class ConfigurationError(ValueError):
    """An extraction configuration admits no candidates for the given data."""


@dataclass(frozen=True)
class UncertainShapelet:
    """An extracted uncertain subsequence with provenance and quality."""

    values: UncertainVector
    source_instance: int
    start_offset: int
    quality: float
    split_threshold: UncertainValue

    @property
    def length(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ExtractionConfig:
    """Candidate enumeration and selection knobs.

    ``max_len=None`` means the full series length; ``k=None`` defaults to
    ``min(10 * n_classes, 200)``.  Candidate start offsets step by
    ``candidate_stride``; the window scan inside the distance always uses
    stride 1.
    """

    min_len: int = DEFAULT_MIN_LEN
    max_len: int | None = None
    k: int | None = None
    candidate_stride: int = 1

    def __post_init__(self) -> None:
        if self.min_len < 1:
            raise ConfigurationError(f"min_len must be >= 1, got {self.min_len}")
        if self.max_len is not None and self.max_len < self.min_len:
            raise ConfigurationError(
                f"max_len {self.max_len} is smaller than min_len {self.min_len}"
            )
        if self.k is not None and self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.candidate_stride < 1:
            raise ConfigurationError(f"candidate_stride must be >= 1, got {self.candidate_stride}")


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------

_KERNEL_CHUNK_ELEMS = 4_000_000


def _prefix_min_dissims(
    src_b: np.ndarray, src_u: np.ndarray,
    row: np.ndarray, start: np.ndarray, ends: np.ndarray, min_len: int,
    series_b: np.ndarray, series_u: np.ndarray,
) -> Iterator[tuple[int, slice, np.ndarray, np.ndarray]]:
    """Yield ``(l, rows, min_b, min_u)`` for every candidate prefix length ``l``.

    Candidate ``c`` is ``src[row[c], start[c]:]``, scored at every length from
    ``min_len`` to ``ends[c]``; ``ends`` is non-increasing, so the candidates of
    length ``l`` are the slice ``rows``.  ``min_b`` and ``min_u`` are their
    ``(len(rows), n)`` minimum dissimilarities to each series under the
    uncertain order.  Each window accumulator grows by one term per length,
    index-ascending exactly like the scalar ``udissim`` fold.  Candidates are
    processed in blocks whose accumulators hold at most ``_KERNEL_CHUNK_ELEMS``
    cells, or one candidate; each entry is independent of the blocking.
    """
    n, m = series_b.shape
    if ends[0] > m:
        raise DimensionMismatchError(f"window length {ends[0]} exceeds series length {m}")
    w0 = m - min_len + 1
    step = max(1, _KERNEL_CHUNK_ELEMS // (n * w0))
    for c0 in range(0, len(row), step):
        block_ends = ends[c0 : c0 + step]
        acc_b, acc_u = np.zeros((2, len(block_ends), n, w0))
        for i in range(block_ends[0]):
            c1 = c0 + np.count_nonzero(block_ends > i)  # candidates of length > i
            w = min(w0, m - i)  # windows valid for length max(i + 1, min_len)
            ab, au = acc_b[: c1 - c0, :, :w], acc_u[: c1 - c0, :, :w]
            at = (row[c0:c1], start[c0:c1] + i)
            d = src_b[at][:, None, None] - series_b[None, :, i : i + w]
            ab += d * d
            np.abs(d, out=d)
            d *= src_u[at][:, None, None] + series_u[None, :, i : i + w]
            au += d
            if i + 1 < min_len:
                continue
            min_b = ab.min(axis=2)
            min_u = 2.0 * au.min(axis=2, where=ab == min_b[:, :, None], initial=np.inf)
            if not (np.isfinite(min_b).all() and np.isfinite(min_u).all()):
                raise NumericOverflowError("dissimilarity overflowed to non-finite values")
            yield i + 1, slice(c0, c1), min_b, min_u


def _batch_best_splits(
    dist_best: np.ndarray,
    dist_unc: np.ndarray,
    label_idx: np.ndarray,
    class_totals: np.ndarray,
    h_full: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best split per candidate row: (gain, margin, thr_best, thr_unc, n_near).

    Thresholds are the distinct observed distances under the uncertain
    order, each landing on the near side; equal gains prefer the larger
    margin, then the smaller threshold.
    """
    c_total, n = dist_best.shape

    # Sort under the uncertain order, i.e. lexicographic (best, uncertainty);
    # complex argsort is lexicographic.  Entries equal in both components may
    # come out in any order: they share every valid cut.
    order = np.argsort(dist_best + 1j * dist_unc, axis=1)
    sb = np.take_along_axis(dist_best, order, axis=1)
    su = np.take_along_axis(dist_unc, order, axis=1)

    valid = np.empty((c_total, n), dtype=bool)
    valid[:, -1] = True
    valid[:, :-1] = (sb[:, :-1] != sb[:, 1:]) | (su[:, :-1] != su[:, 1:])
    gain = _split_gains(label_idx[order], valid, class_totals, h_full)

    margin = np.zeros((c_total, n))
    margin[:, :-1] = sb[:, 1:] - sb[:, :-1]

    gain_max = gain.max(axis=1)
    # argmax takes the first of equal margins, i.e. the smallest threshold
    pick = np.where(gain == gain_max[:, None], margin, -np.inf).argmax(axis=1)

    rows = np.arange(c_total)
    return gain_max, margin[rows, pick], sb[rows, pick], su[rows, pick], pick + 1


# ---------------------------------------------------------------------------
# extraction and transform
# ---------------------------------------------------------------------------

def extract_shapelets(train: UncertainDataset, config: ExtractionConfig = ExtractionConfig()) -> list[UncertainShapelet]:
    """Score every candidate window and return the top k after pruning.

    Candidates are the prefixes of stems ``(offset, source)``, enumerated
    offset-major.  Blocks of stems are scored at every length up to
    ``min(max_len, m - offset)`` into a ``(4, stems, lengths)`` table of
    ``quality``, ``margin``, ``thr_b`` and ``thr_u``, flattened over the cells
    that fit.  The output follows the selection key, not the table order:
    quality descending, ties broken by larger split margin, shorter length,
    then smaller (source, offset).  A candidate overlapping an already-selected
    candidate from the same source series is pruned.  Output is deterministic
    and independent of any parallel scheduling.
    """
    best, unc = train.best, train.uncertainty
    n, m = best.shape
    labels = train.labels
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("extraction needs at least two classes in the training set")
    if n < 2:
        raise ValueError("extraction needs at least two training instances")

    min_len = config.min_len
    max_len = config.max_len if config.max_len is not None else m
    if min_len > m or max_len > m:
        raise ConfigurationError(
            f"length range [{min_len}, {max_len}] admits no candidate in series of length {m}"
        )
    k = config.k if config.k is not None else min(10 * len(classes), MAX_DEFAULT_K)

    index = {c: i for i, c in enumerate(classes)}
    label_idx = np.array([index[lab] for lab in labels], dtype=np.int64)
    class_totals = np.bincount(label_idx, minlength=len(classes))
    h_full = entropy_from_counts(class_totals.tolist(), n)

    # stems (offset, source) offset-major, so the longest prefix ``ends`` is non-increasing
    offset = np.repeat(np.arange(0, m - min_len + 1, config.candidate_stride), n)
    source = np.tile(np.arange(n), len(offset) // n)
    ends = np.minimum(max_len, m - offset)
    table = np.empty((4, len(offset), max_len - min_len + 1))
    for l, rows, dist_b, dist_u in _prefix_min_dissims(best, unc, source, offset, ends, min_len, best, unc):
        table[:, rows, l - min_len] = _batch_best_splits(dist_b, dist_u, label_idx, class_totals, h_full)[:4]

    stem, column = np.nonzero(np.arange(min_len, max_len + 1) <= ends[:, None])
    quality, margin, thr_b, thr_u = table[:, stem, column]
    length, source, offset = column + min_len, source[stem], offset[stem]

    order = np.lexsort((offset, source, length, -margin, -quality))
    taken = np.zeros((n, m), dtype=bool)  # cells of each source inside a selected window
    selected: list[int] = []
    for i in order.tolist():
        cells = taken[source[i], offset[i] : offset[i] + length[i]]
        if cells.any():
            continue
        cells[:] = True
        selected.append(i)
        if len(selected) == k:
            break

    return [
        UncertainShapelet(
            values=UncertainVector(
                best[source[i], offset[i] : offset[i] + length[i]],
                unc[source[i], offset[i] : offset[i] + length[i]],
            ),
            source_instance=int(source[i]),
            start_offset=int(offset[i]),
            quality=float(quality[i]),
            split_threshold=UncertainValue(float(thr_b[i]), float(thr_u[i])),
        )
        for i in selected
    ]


def shapelet_transform(
    d: UncertainDataset, shapelets: Sequence[UncertainShapelet]
) -> UncertainDataset:
    """Distance of every instance to every shapelet, as an ``(n, k)`` dataset.

    Entry ``(i, j)`` is the minimum uncertain dissimilarity from
    ``shapelets[j].values`` to any equal-length window of instance ``i``;
    rows follow the instance order and carry the instance labels.
    """
    if not shapelets:
        raise ValueError("shapelets must be non-empty")
    best, unc = d.best, d.uncertainty
    n, m = best.shape
    k = len(shapelets)
    out_b = np.empty((n, k))
    out_u = np.empty((n, k))

    rows = max(1, _KERNEL_CHUNK_ELEMS // m)  # instances are independent; a block of them fits the budget
    length = np.array([sh.length for sh in shapelets])
    for l in np.unique(length):
        cols = np.flatnonzero(length == l)
        cand_b = np.stack([shapelets[j].values.best for j in cols])
        cand_u = np.stack([shapelets[j].values.uncertainty for j in cols])
        start = np.zeros(len(cols), dtype=np.int64)
        for r0 in range(0, n, rows):
            r = slice(r0, r0 + rows)
            blocks = _prefix_min_dissims(cand_b, cand_u, np.arange(len(cols)), start, start + l, l, best[r], unc[r])
            for _, c, dist_b, dist_u in blocks:
                out_b[r, cols[c]] = dist_b.T
                out_u[r, cols[c]] = dist_u.T

    return UncertainDataset.from_arrays(out_b, out_u, d.labels)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def shapelets_to_json(shapelets: Sequence[UncertainShapelet]) -> str:
    docs = [
        {
            "source_instance": sh.source_instance,
            "start_offset": sh.start_offset,
            "length": sh.length,
            "quality": sh.quality,
            "threshold": {
                "best": sh.split_threshold.best,
                "uncertainty": sh.split_threshold.uncertainty,
            },
            "values": [
                {"best": float(b), "uncertainty": float(u)}
                for b, u in zip(sh.values.best, sh.values.uncertainty)
            ],
        }
        for sh in shapelets
    ]
    return json.dumps(docs, indent=2)


def shapelets_from_json(text: str) -> list[UncertainShapelet]:
    docs = json.loads(text)
    out = []
    for doc in docs:
        values = UncertainVector(
            [_json_real(v["best"], "values[].best") for v in doc["values"]],
            [_json_real(v["uncertainty"], "values[].uncertainty") for v in doc["values"]],
        )
        length = _json_int(doc["length"], "length", 1)
        if len(values) != length:
            raise ValueError(
                f"shapelet declares length {length} but has {len(values)} values"
            )
        out.append(
            UncertainShapelet(
                values=values,
                source_instance=_json_int(doc["source_instance"], "source_instance", 0),
                start_offset=_json_int(doc["start_offset"], "start_offset", 0),
                quality=_json_real(doc["quality"], "quality"),
                split_threshold=UncertainValue(
                    _json_real(doc["threshold"]["best"], "threshold.best"),
                    _json_real(doc["threshold"]["uncertainty"], "threshold.uncertainty"),
                ),
            )
        )
    return out


def save_shapelets(shapelets: Sequence[UncertainShapelet], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(shapelets_to_json(shapelets) + "\n")


def load_shapelets(path: str | Path) -> list[UncertainShapelet]:
    try:
        return shapelets_from_json(Path(path).read_text(encoding="utf-8"))
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed shapelet file: {type(exc).__name__}: {exc}") from None
