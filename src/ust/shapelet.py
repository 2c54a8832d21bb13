"""Uncertain-shapelet extraction and the shapelet transform.

A shapelet candidate is a contiguous window of a training series.  Its
quality is the best information gain achievable by thresholding the
distances from the candidate to every training series, where distance is
the window-minimizing uncertain dissimilarity (:func:`ust.core.udissim`)
under the uncertain total order.  Extraction scores every candidate in the
configured length range, prunes overlapping candidates from the same source
series, and keeps the top k by quality.

The batch scorer reproduces a scalar brute force bit for bit: distance
accumulation runs index-ascending exactly as in ``udissim``, and split gains
come from the sweep shared with the decision tree, which ranks every cut
with a vectorized approximation and then rescores the cuts that can be a
row's maximum with the scalar expression of
:func:`ust.classify.entropy_from_counts`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classify import _split_gains, entropy_from_counts
from .core import DimensionMismatchError, NumericOverflowError, UncertainValue, UncertainVector
from .series import UncertainDataset

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


def _sliding_min_dissim(
    cand_best: np.ndarray,
    cand_unc: np.ndarray,
    series_best: np.ndarray,
    series_unc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum dissimilarity of each candidate to each series: (C, N) pair.

    Accumulates over the window position index in ascending order, exactly
    like the scalar ``udissim`` fold, and takes the minimum under the
    uncertain order over all windows.  Candidates and series are processed
    in blocks of at most ``_KERNEL_CHUNK_ELEMS`` windows to bound peak
    memory; each (candidate, series) entry is independent of the blocking.
    """
    c_total, l = cand_best.shape
    n, m = series_best.shape
    if l > m:
        raise DimensionMismatchError(f"candidate length {l} exceeds series length {m}")
    w = m - l + 1
    out_best = np.empty((c_total, n))
    out_unc = np.empty((c_total, n))
    rows = min(n, max(1, _KERNEL_CHUNK_ELEMS // w))
    chunk = max(1, _KERNEL_CHUNK_ELEMS // (rows * w))
    for c0 in range(0, c_total, chunk):
        c1 = min(c_total, c0 + chunk)
        sb = cand_best[c0:c1]
        su = cand_unc[c0:c1]
        for r0 in range(0, n, rows):
            r1 = min(n, r0 + rows)
            tb = series_best[r0:r1]
            tu = series_unc[r0:r1]
            acc_b = np.zeros((c1 - c0, r1 - r0, w))
            acc_u = np.zeros((c1 - c0, r1 - r0, w))
            for i in range(l):
                d = sb[:, i, None, None] - tb[None, :, i : i + w]
                acc_b += d * d
                np.abs(d, out=d)
                acc_u += d * (su[:, i, None, None] + tu[None, :, i : i + w])
            acc_u *= 2.0
            min_b = acc_b.min(axis=2)
            min_u = np.where(acc_b == min_b[:, :, None], acc_u, np.inf).min(axis=2)
            if not (np.isfinite(min_b).all() and np.isfinite(min_u).all()):
                raise NumericOverflowError("dissimilarity overflowed to non-finite values")
            out_best[c0:c1, r0:r1] = min_b
            out_unc[c0:c1, r0:r1] = min_u
    return out_best, out_unc


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

def _overlaps(offset_a: int, len_a: int, offset_b: int, len_b: int) -> bool:
    return offset_a < offset_b + len_b and offset_b < offset_a + len_a


def extract_shapelets(train: UncertainDataset, config: ExtractionConfig = ExtractionConfig()) -> list[UncertainShapelet]:
    """Score every candidate window and return the top k after pruning.

    Candidates are enumerated length-ascending, then by source instance and
    start offset.  Selection sorts by quality descending with ties broken by
    larger split margin, shorter length, then smaller (source, offset);
    candidates overlapping an already-selected candidate from the same
    source series are pruned.  Output is deterministic and independent of
    any parallel scheduling.
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

    qualities: list[np.ndarray] = []
    margins: list[np.ndarray] = []
    thr_bests: list[np.ndarray] = []
    thr_uncs: list[np.ndarray] = []
    lengths: list[np.ndarray] = []
    sources: list[np.ndarray] = []
    offsets: list[np.ndarray] = []
    for l in range(min_len, max_len + 1):
        offs = np.arange(0, m - l + 1, config.candidate_stride)
        cand_b = sliding_window_view(best, l, axis=1)[:, offs].reshape(-1, l)
        cand_u = sliding_window_view(unc, l, axis=1)[:, offs].reshape(-1, l)
        dist_b, dist_u = _sliding_min_dissim(cand_b, cand_u, best, unc)
        g, mg, tb, tu, _ = _batch_best_splits(dist_b, dist_u, label_idx, class_totals, h_full)
        qualities.append(g)
        margins.append(mg)
        thr_bests.append(tb)
        thr_uncs.append(tu)
        count = len(offs) * n
        lengths.append(np.full(count, l, dtype=np.int64))
        sources.append(np.repeat(np.arange(n, dtype=np.int64), len(offs)))
        offsets.append(np.tile(offs.astype(np.int64), n))

    quality = np.concatenate(qualities)
    margin = np.concatenate(margins)
    thr_b = np.concatenate(thr_bests)
    thr_u = np.concatenate(thr_uncs)
    length = np.concatenate(lengths)
    source = np.concatenate(sources)
    offset = np.concatenate(offsets)

    order = np.lexsort((offset, source, length, -margin, -quality))
    selected: list[int] = []
    by_source: dict[int, list[tuple[int, int]]] = {}
    for idx in order.tolist():
        s, o, l = int(source[idx]), int(offset[idx]), int(length[idx])
        if any(_overlaps(o, l, o2, l2) for o2, l2 in by_source.get(s, ())):
            continue
        selected.append(idx)
        by_source.setdefault(s, []).append((o, l))
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

    by_length: dict[int, list[int]] = {}
    for j, sh in enumerate(shapelets):
        if sh.length > m:
            raise DimensionMismatchError(
                f"shapelet of length {sh.length} cannot slide over series of length {m}"
            )
        by_length.setdefault(sh.length, []).append(j)

    for l, idxs in by_length.items():
        cand_b = np.stack([shapelets[j].values.best for j in idxs])
        cand_u = np.stack([shapelets[j].values.uncertainty for j in idxs])
        dist_b, dist_u = _sliding_min_dissim(cand_b, cand_u, best, unc)
        out_b[:, idxs] = dist_b.T
        out_u[:, idxs] = dist_u.T

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
            [v["best"] for v in doc["values"]],
            [v["uncertainty"] for v in doc["values"]],
        )
        if len(values) != doc["length"]:
            raise ValueError(
                f"shapelet declares length {doc['length']} but has {len(values)} values"
            )
        out.append(
            UncertainShapelet(
                values=values,
                source_instance=int(doc["source_instance"]),
                start_offset=int(doc["start_offset"]),
                quality=float(doc["quality"]),
                split_threshold=UncertainValue(
                    doc["threshold"]["best"], doc["threshold"]["uncertainty"]
                ),
            )
        )
    return out


def save_shapelets(shapelets: Sequence[UncertainShapelet], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(shapelets_to_json(shapelets) + "\n")


def load_shapelets(path: str | Path) -> list[UncertainShapelet]:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return shapelets_from_json(text)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed shapelet file: {type(exc).__name__}: {exc}") from None
