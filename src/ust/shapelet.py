"""Uncertain-shapelet extraction and the shapelet transform.

A shapelet candidate is a contiguous window of a training series.  Its
quality is the best information gain achievable by thresholding the
distances from the candidate to every training series, where distance is
the window-minimizing uncertain dissimilarity (:func:`ust.core.udissim`)
under the uncertain total order.  Extraction scores every candidate in the
configured length range, prunes overlapping candidates from the same source
series, and keeps the top k by quality.

The batch scorer reproduces a scalar brute force bit for bit.  Candidates are
the prefixes of stems (a source and a start offset).  One kernel serves
extraction and the transform.  For each cache-sized tile of sources by series
rows it computes every pairwise term once into a term table, then grows every
window sum of the tile by one index-ascending term per length, as ``udissim``
folds them, from a shifted view of that table.  The tiles' per-length minima
fill a staging block of stems, which is scored at every length it reaches.
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

_KERNEL_CHUNK_ELEMS = 4_000_000  # staging: stems * n * (m - min_len + 1) cells per block
_TILE_ELEMS = 300_000  # term and accumulator cells of one tile; the fastest measured of 100 K to 600 K


def _grid_min_dissims(
    src_b: np.ndarray, src_u: np.ndarray, stride: int, ends: np.ndarray, min_len: int,
    series_b: np.ndarray, series_u: np.ndarray,
) -> Iterator[tuple[int, slice, slice, np.ndarray, np.ndarray]]:
    """Yield ``(l, offsets, sources, min_b, min_u)`` for every stem prefix length ``l``.

    Stems are the grid of start offsets ``stride * k`` (``k < len(ends)``) by
    rows of ``src``.  The stems at offset ``k`` are scored at every length from
    ``min_len`` to ``ends[k]``; ``ends`` is non-increasing, so the offsets of
    length ``l`` are a leading slice.  ``min_b`` and ``min_u`` are the
    ``(offsets, sources, n)`` minimum dissimilarities of those stems to each
    series under the uncertain order.

    Stems are staged in blocks of offsets by sources of at most
    ``_KERNEL_CHUNK_ELEMS // (n * (m - min_len + 1))`` stems, or one, so that
    a block's minima at every length, and their split sweep at one length,
    stay within the budget.  A block is filled tile by tile.  A tile of
    sources by series rows builds its term tables ``(x_src[p] - x_ser[q])**2``
    and ``|x_src[p] - x_ser[q]| * (u_src[p] + u_ser[q])`` once; each window
    accumulator then grows by one term per length, index-ascending exactly
    like the scalar ``udissim`` fold, from a shifted view of the tables.
    Tiles hold at most ``_TILE_ELEMS`` term and accumulator cells, or one
    source against one row.  No entry depends on either blocking.
    """
    n, m = series_b.shape
    if ends[0] > m:
        raise DimensionMismatchError(f"window length {ends[0]} exceeds series length {m}")
    w0 = m - min_len + 1
    stems = max(1, _KERNEL_CHUNK_ELEMS // (n * w0))
    stage_offsets = min(len(ends), stems)
    stage_sources = max(1, stems // stage_offsets)
    for k0 in range(0, len(ends), stage_offsets):
        block_ends = ends[k0 : k0 + stage_offsets]
        p0 = stride * k0
        p1 = int((p0 + stride * np.arange(len(block_ends)) + block_ends).max())
        pair_cells = m * (p1 - p0) + w0 * len(block_ends)  # one source against one row
        tile_rows = min(n, max(1, _TILE_ELEMS // pair_cells))
        tile_sources = min(stage_sources, len(src_b), max(1, _TILE_ELEMS // (pair_cells * tile_rows)))
        # tiles share these buffers: a fresh allocation per tile costs a page fault per page
        terms = np.empty((2, m, p1 - p0, tile_sources, tile_rows))
        acc = np.empty((2, w0, len(block_ends), tile_sources, tile_rows))
        for s0 in range(0, len(src_b), stage_sources):
            s1 = min(s0 + stage_sources, len(src_b))
            min_b, min_u = np.empty((2, block_ends[0] - min_len + 1, len(block_ends), s1 - s0, n))
            with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked on the minima
                for a in range(s0, s1, tile_sources):
                    b = min(a + tile_sources, s1)
                    for r0 in range(0, n, tile_rows):
                        r = slice(r0, r0 + tile_rows)
                        _fill_tile(
                            src_b[a:b, p0:p1].T, src_u[a:b, p0:p1].T, stride, block_ends, min_len,
                            series_b[r].T, series_u[r].T,
                            min_b[:, :, a - s0 : b - s0, r], min_u[:, :, a - s0 : b - s0, r], terms, acc,
                        )
            for l in range(min_len, block_ends[0] + 1):
                o = np.count_nonzero(block_ends >= l)
                mb, mu = min_b[l - min_len, :o], min_u[l - min_len, :o]
                if not (np.isfinite(mb).all() and np.isfinite(mu).all()):
                    raise NumericOverflowError("dissimilarity overflowed to non-finite values")
                yield l, slice(k0, k0 + o), slice(s0, s1), mb, mu


def _fill_tile(
    src_b: np.ndarray, src_u: np.ndarray, stride: int, ends: np.ndarray, min_len: int,
    ser_b: np.ndarray, ser_u: np.ndarray, min_b: np.ndarray, min_u: np.ndarray,
    terms: np.ndarray, acc: np.ndarray,
) -> None:
    """Write one tile's ``(lengths, offsets, sources, rows)`` minima into ``min_b``, ``min_u``.

    ``src`` is ``(positions, sources)`` from the tile's first offset on and
    ``ser`` is ``(m, rows)``.  Term ``[q, p, s, j]`` pairs series position
    ``q`` with source position ``p`` and accumulator ``[t, k, s, j]`` is window
    ``t`` of offset ``k``, so step ``i`` adds one strided view of the terms.
    The minimum under the uncertain order reduces over the leading window
    axis.  ``terms`` and ``acc`` are scratch buffers at least the tile's size.
    """
    s, r = src_b.shape[1], ser_b.shape[1]
    (term_b, term_u), acc = terms[..., :s, :r], acc[..., :s, :r]
    m, w0 = len(ser_b), len(ser_b) - min_len + 1
    np.subtract(src_b[None, :, :, None], ser_b[:, None, None, :], out=term_b)
    np.abs(term_b, out=term_b)
    np.add(src_u[None, :, :, None], ser_u[:, None, None, :], out=term_u)
    term_u *= term_b
    term_b *= term_b
    acc.fill(0.0)
    for i in range(ends[0]):
        o = np.count_nonzero(ends > i)  # offsets with a term at index i
        w = min(w0, m - i)  # windows valid for length max(i + 1, min_len)
        at = slice(i, i + w), slice(i, i + (o - 1) * stride + 1, stride)
        ab, au = acc[0, :w, :o], acc[1, :w, :o]
        ab += term_b[at]
        au += term_u[at]
        if i + 1 < min_len:
            continue
        mb, mu = min_b[i + 1 - min_len, :o], min_u[i + 1 - min_len, :o]
        np.min(ab, axis=0, out=mb)
        np.min(au, axis=0, out=mu, where=ab == mb, initial=np.inf)
        mu *= 2.0


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

    Candidates are the prefixes of stems ``(offset, source)`` of length up
    to ``min(max_len, m - offset)``.  The distance kernel yields a staging
    block of stems per length, and one split sweep per yield scores it into a
    ``(4, offsets, sources, lengths)`` table of ``quality``, ``margin``,
    ``thr_b`` and ``thr_u``, flattened offset-major over the cells that fit.
    Tiles and staging blocks are bounded by ``_TILE_ELEMS`` and
    ``_KERNEL_CHUNK_ELEMS``.  The output follows the selection key, not the
    table order: quality descending, ties broken by larger split margin,
    shorter length, then smaller (source, offset).  A candidate overlapping
    an already-selected candidate from the same source series is pruned.
    Output is deterministic and independent of any parallel scheduling.
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

    # the longest prefix ``ends`` of a stem is non-increasing in its offset
    offsets = np.arange(0, m - min_len + 1, config.candidate_stride)
    ends = np.minimum(max_len, m - offsets)
    table = np.empty((4, len(offsets), n, max_len - min_len + 1))
    for l, o, s, dist_b, dist_u in _grid_min_dissims(best, unc, config.candidate_stride, ends, min_len, best, unc):
        splits = _batch_best_splits(dist_b.reshape(-1, n), dist_u.reshape(-1, n), label_idx, class_totals, h_full)
        table[:, o, s, l - min_len] = np.reshape(splits[:4], (4, *dist_b.shape[:2]))

    # stems offset-major, each with the lengths it reaches
    stem, column = np.nonzero(np.arange(min_len, max_len + 1) <= np.repeat(ends, n)[:, None])
    quality, margin, thr_b, thr_u = table.reshape(4, len(offsets) * n, -1)[:, stem, column]
    length, source, offset = column + min_len, stem % n, offsets[stem // n]

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
    rows follow the instance order and carry the instance labels.  The
    shapelets of one length are the kernel's sources, each a single stem at
    offset 0, and its tiles split the instances into cache-sized row blocks.
    """
    if not shapelets:
        raise ValueError("shapelets must be non-empty")
    best, unc = d.best, d.uncertainty
    n, m = best.shape
    k = len(shapelets)
    out_b = np.empty((n, k))
    out_u = np.empty((n, k))

    length = np.array([sh.length for sh in shapelets])
    for l in np.unique(length):
        cols = np.flatnonzero(length == l)
        cand_b = np.stack([shapelets[j].values.best for j in cols])
        cand_u = np.stack([shapelets[j].values.uncertainty for j in cols])
        for _, _, s, dist_b, dist_u in _grid_min_dissims(cand_b, cand_u, 1, np.array([l]), l, best, unc):
            out_b[:, cols[s]] = dist_b[0].T
            out_u[:, cols[s]] = dist_u[0].T

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
