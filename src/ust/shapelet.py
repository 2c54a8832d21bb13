"""Uncertain-shapelet extraction and the shapelet transform.

A shapelet candidate is a contiguous window of a training series.  Its
quality is the best information gain achievable by thresholding the
distances from the candidate to every training series, where distance is
the window-minimizing uncertain dissimilarity (:func:`ust.core.udissim`)
under the uncertain total order.  Extraction scores every candidate in the
configured length range, prunes overlapping candidates from the same source
series, and keeps the top k by quality.

The batch scorer reproduces a scalar brute force bit for bit.  Candidates are
the prefixes of stems (a source and a start offset).  The extraction kernel,
for each cache-sized tile of sources by series rows, computes every pairwise
term once into a term table, then grows every window sum of the tile by one
index-ascending term per length, as ``udissim`` folds them, from a shifted
view of that table.  The tiles fill staging blocks of stems, which the kernel
yields whole and source-major: one ``(rows, n)``
array of minima per block, length after length, each holding only the offsets
that reach it.  Extraction sweeps a block's rows in fixed slices of at most
``_SWEEP_ELEMS`` distances, or one row, whatever lengths a slice spans.  The
split sweep, shared with the decision tree, sorts rows on their real best
estimates (on the uncertainties too only in rows with an exact tie), ranks
every cut approximately and rescores the cuts that can be a row's maximum
with the scalar expression of :func:`ust.classify.entropy_from_counts`; each
row's best cut is then a segmented maximum of gain, then margin.

The selection is per source, as in Hills et al. (DMKD 2014): once a block of
sources is scored, each keeps only its own greedy picks, up to k.  That is
exact.  The greedy skips a candidate only for overlapping an earlier pick of
its own source, so the global picks are the first k, in key order, of the
union of every source's own picks.

On certain data (the ``st`` view, or no uncertainty file) the kernel sums only
``(a - b)**2``, which has the bits of ``|a - b|**2``, and leaves every
uncertainty minimum at the ``+0.0`` the full path gives there.  Extraction scores
first on that best-only path (certain data on the full path, which gives the
same), since an uncertainty minimum changes an output only where it orders an
exact best tie or is a selected shapelet's threshold.  The first scoring stands
unless it meets an exact best tie or an uncertainty sum could overflow; then
extraction scores once more on the full path.  The transform
has its own kernel: one pass over contiguous row chunks sums the best
estimates of every shapelet length, then folds each cell's uncertainty terms
at its first minimizing window, which gives the full path's bits where that
minimum is unique; a chunk holding a cell with an exact best tie across
windows is folded at every window.  A threshold is a cell of the train
transform, which extraction computes once and hands on with its shapelets.

Extraction and the transform run on one worker thread per CPU in this
process's affinity mask (``taskset -c`` restricts it); inside ``ust benchmark
--jobs J`` with T dataset tasks each task's call gets ``1/min(J, T)`` of them,
at least one.  The kernel's independent axis is split into fixed contiguous
slices, one per worker: extraction gives each worker a slice of sources, which
it stages, scores and selects from, and the transform gives each a slice of
series rows, but no worker less than one row chunk.  No entry depends on the
slicing, so the worker count never changes an output byte.  One worker, or one
unit of work, runs inline on the calling thread.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .classify import _class_index, _split_gains
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
# term and accumulator cells of one tile per plane, the fastest measured of 100 K to 600 K.  A call's tile scratch
# holds a best and an uncertainty plane of each, up to 16 * this bytes, on the best-only path too: its best planes
# alone fall under glibc's dynamic mmap threshold onto the heap, which raised split-classify's peak RSS 89.7 -> 93.8 MB
_TILE_ELEMS = 300_000
_ROW_CHUNK_ELEMS = 65_536  # transform: k * m cells per row of a chunk, times its rows (at least one row)
_SWEEP_ELEMS = 32_768  # distance cells of one split sweep over a slice of a block's rows (at least one row)
# pipeline runs sharing this process's CPUs: ``ust benchmark --jobs`` sets it in each of its task threads
_concurrent_tasks: contextvars.ContextVar[int] = contextvars.ContextVar("_concurrent_tasks", default=1)


def _worker_count() -> int:
    """Kernel threads for one call: the CPUs of the process's affinity mask divided among its concurrent tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _concurrent_tasks.get())


def _in_slices(count: int, work: Callable[[slice], object], chunks: int | None = None) -> list:
    """``work(part)`` of fixed contiguous slices of ``range(count)``, one per worker, in slice order.

    Workers are :func:`_worker_count` capped at ``count`` and, when the caller
    gives the ``chunks`` its work spans, at that many, so that no worker gets
    less than one chunk.  One worker runs inline on the calling thread; more
    run on one thread pool that is shut down before this returns, each in a
    copy of the caller's context, so that they see its ``_concurrent_tasks``.
    A worker's exception is raised here unchanged, the first in slice order.
    """
    workers = min(_worker_count(), count, count if chunks is None else chunks)
    if workers <= 1:
        return [work(slice(0, count))]
    bounds = [count * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, slice(a, b)) for a, b in zip(bounds, bounds[1:])]
        return [future.result() for future in futures]


def _grid_min_dissims(
    src_b: np.ndarray, src_u: np.ndarray, stride: int, ends: np.ndarray, min_len: int,
    series_b: np.ndarray, series_u: np.ndarray,
) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Yield ``(offsets, sources, min_b, min_u)`` once per staging block of stems.

    Stems are the grid of start offsets ``stride * k`` (``k < len(ends)``) by
    rows of ``src``.  The stems at offset ``k`` are scored at every length from
    ``min_len`` to ``ends[k]``; ``ends`` is non-increasing, so the offsets of
    a length are a leading slice.  A block is the stems of the ``offsets`` by
    ``sources`` slices; each block of sources yields its offset blocks in
    order, the last with ``offsets.stop == len(ends)``, before the next.
    ``min_b`` and ``min_u`` are the block's ``(rows, n)`` minimum
    dissimilarities to each series under the uncertain order: length
    ``min_len + i`` holds the next ``len(sources)`` rows for each of the
    block's offsets ``k`` with ``ends[k] >= min_len + i``, in (offset, source)
    order.
    When every uncertainty is zero the kernel takes its certain path: it sums
    the best-estimate terms only, and ``min_u`` is a read-only view of ``+0.0``
    that takes no memory.  Zero uncertainties therefore give the best-only path
    on any data, which is how extraction scores.  Extraction is the only
    caller: the transform has its own kernel.

    Blocks hold at most ``_KERNEL_CHUNK_ELEMS // (workers * n * (m - min_len
    + 1))`` stems, or one, so that a block's minima stay within the budget when
    ``workers`` calls run at once on disjoint slices of the sources;
    ``workers`` is the caller's :func:`_worker_count`.  A caller's own
    work on a block comes on top (extraction: one split sweep of at most
    ``_SWEEP_ELEMS`` cells, or one row).  Each call is serial and
    allocates its tile scratch once, two buffers sized for its largest tile.
    A block is filled tile by tile.  A tile of sources by series rows builds
    its term tables ``(x_src[p] - x_ser[q])**2`` and ``|x_src[p] - x_ser[q]| *
    (u_src[p] + u_ser[q])`` once; each window accumulator then grows by one
    term per length, index-ascending exactly like the scalar ``udissim`` fold,
    from a shifted view of the tables.  Tiles hold at most ``_TILE_ELEMS`` term
    and accumulator cells per plane, or one source against one row.  No entry
    depends on either blocking.
    """
    n, m = series_b.shape
    if ends[0] > m:
        raise DimensionMismatchError(f"window length {ends[0]} exceeds series length {m}")
    w0 = m - min_len + 1
    # with no uncertainty every term |a - b| * (u + v) is +0.0: min_u is a read-only view of one zero
    certain = not (src_u.any() or series_u.any())
    path = "certain" if certain else "full"
    stems = max(1, _KERNEL_CHUNK_ELEMS // (_worker_count() * n * w0))
    stage_offsets = min(len(ends), stems)
    stage_sources = max(1, stems // stage_offsets)
    # each offset block's ends, source positions, tile shapes and depth, its count of offsets with a term at each index
    blocks = []
    for k0 in range(0, len(ends), stage_offsets):
        block_ends = ends[k0 : k0 + stage_offsets]
        p0 = stride * k0
        p1 = int((p0 + stride * np.arange(len(block_ends)) + block_ends).max())
        pair_cells = m * (p1 - p0) + w0 * len(block_ends)  # a tile's term and accumulator cells per (source, row)
        tile_rows = min(n, max(1, _TILE_ELEMS // pair_cells))
        tile = min(stage_sources, len(src_b), max(1, _TILE_ELEMS // (pair_cells * tile_rows))), tile_rows
        depth = np.count_nonzero(block_ends[:, None] > np.arange(block_ends[0]), axis=0).tolist()
        blocks.append((k0, block_ends, p0, p1, [(2, m, p1 - p0, *tile), (2, w0, len(block_ends), *tile)], depth))
    # every tile of the call shares these two buffers: a fresh allocation per tile costs a page fault per page
    scratch = [np.empty(max(math.prod(block[4][i]) for block in blocks)) for i in (0, 1)]
    for s0 in range(0, len(src_b), stage_sources):
        s1 = min(s0 + stage_sources, len(src_b))
        for k0, block_ends, p0, p1, shapes, depth in blocks:
            terms, acc = (buf[: math.prod(shape)].reshape(shape) for buf, shape in zip(scratch, shapes))
            tile_sources, tile_rows = shapes[0][3:]
            reach = depth[min_len - 1 :]  # offsets reaching each length
            shape = (sum(reach) * (s1 - s0), n)
            min_b = np.empty(shape)
            min_u = np.broadcast_to(0.0, shape) if certain else np.empty(shape)
            cuts = [0, *(np.cumsum(reach) * (s1 - s0)).tolist()]
            # each length's (offsets, sources, n) view, into which the tiles write
            views = [[buf[a:b].reshape(-1, s1 - s0, n) for a, b in zip(cuts, cuts[1:])] for buf in (min_b, min_u)]
            with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked on the minima
                for a in range(s0, s1, tile_sources):
                    b = min(a + tile_sources, s1)
                    for r0 in range(0, n, tile_rows):
                        r = slice(r0, r0 + tile_rows)
                        _fill_tile(
                            src_b[a:b, p0:p1].T, src_u[a:b, p0:p1].T, stride, depth, min_len,
                            series_b[r].T, series_u[r].T, *views, (slice(a - s0, b - s0), r), terms, acc, path,
                        )
            if not (np.isfinite(min_b).all() and (certain or np.isfinite(min_u).all())):
                raise NumericOverflowError("dissimilarity overflowed to non-finite values")
            yield slice(k0, k0 + len(block_ends)), slice(s0, s1), min_b, min_u


def _fill_tile(
    src_b: np.ndarray, src_u: np.ndarray, stride: int, depth: list[int], min_len: int,
    ser_b: np.ndarray, ser_u: np.ndarray, min_b: list[np.ndarray], min_u: list[np.ndarray],
    tile: tuple[slice, slice], terms: np.ndarray, acc: np.ndarray, path: str,
) -> None:
    """Write one tile's minima into the ``tile`` (sources, rows) of ``min_b``, ``min_u``.

    ``min_b[l - min_len]`` and ``min_u[l - min_len]`` are the ``(offsets reaching l, sources, n)`` views of a
    staging block's minima at length ``l`` (the block layout of :func:`_grid_min_dissims`); ``depth[i]`` counts
    its offsets with a term at index ``i``.  ``src`` is ``(positions, sources)`` from the tile's first offset
    on and ``ser`` is ``(m, rows)``.  Term ``[q, p, s, j]`` pairs series position
    ``q`` with source position ``p`` and accumulator ``[t, k, s, j]`` is window
    ``t`` of offset ``k``, so step ``i`` adds one strided view of the terms.
    The minimum under the uncertain order reduces over the leading window
    axis.  ``terms`` and ``acc`` are the call's scratch buffers, at least the tile's size.
    ``path`` is ``"full"``, which sums both planes, or ``"certain"``, where every
    uncertainty is zero, so the uncertainty terms and their minima are skipped
    and ``min_u`` must already hold the ``+0.0`` they give.
    """
    s, r = src_b.shape[1], ser_b.shape[1]
    (term_b, term_u), (acc_b, acc_u) = terms[..., :s, :r], acc[..., :s, :r]
    m, w0 = len(ser_b), len(ser_b) - min_len + 1
    full = path == "full"
    np.subtract(src_b[None, :, :, None], ser_b[:, None, None, :], out=term_b)
    if full:
        np.abs(term_b, out=term_b)
        np.add(src_u[None, :, :, None], ser_u[:, None, None, :], out=term_u)
        term_u *= term_b
        acc_u.fill(0.0)
    term_b *= term_b
    acc_b.fill(0.0)
    for i, o in enumerate(depth):
        w = min(w0, m - i)  # windows valid for length max(i + 1, min_len)
        at = slice(i, i + w), slice(i, i + (o - 1) * stride + 1, stride)
        ab, au = acc_b[:w, :o], acc_u[:w, :o]
        ab += term_b[at]
        if full:
            au += term_u[at]
        if i + 1 < min_len:
            continue
        mb = min_b[i + 1 - min_len][:, tile[0], tile[1]]
        np.min(ab, axis=0, out=mb)
        if full:
            mu = min_u[i + 1 - min_len][:, tile[0], tile[1]]
            np.min(au, axis=0, out=mu, where=ab == mb, initial=np.inf)
            mu *= 2.0


def _batch_best_splits(
    dist_best: np.ndarray,
    dist_unc: np.ndarray | None,
    label_idx: np.ndarray,
    class_totals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Best split per candidate row: (gain, margin, thr_at).

    Thresholds are the distinct observed distances under the uncertain
    order, each landing on the near side; equal gains prefer the larger
    margin, then the smaller threshold.  A threshold is named only by
    ``thr_at``, the column (series) whose distance it is: the row's cell in
    that column.  Uncertainties only order exact best ties, so only the rows
    of ``dist_unc`` that hold one are read.  With ``dist_unc=None``
    (best-only minima) such a row makes the call return None.
    """
    c_total, n = dist_best.shape

    # Sort under the uncertain order (best, then uncertainty): argsort the best
    # estimates, and lexsort only the rows with an exact best tie.  Entries
    # equal in both components may come out in any order: they share every valid cut.
    order = np.argsort(dist_best, axis=1)
    sorted_labels = label_idx[order]
    order += np.arange(0, c_total * n, n)[:, None]  # flat indices into the ravelled input
    best = dist_best.ravel()
    valid = np.ones((c_total, n), dtype=bool)
    sb = best[order]
    np.not_equal(sb[:, :-1], sb[:, 1:], out=valid[:, :-1])
    del sb  # margins and thresholds are read through ``order``
    tied = np.flatnonzero(~valid[:, :-1].all(axis=1))
    if len(tied):
        if dist_unc is None:
            return None
        unc = dist_unc[tied]
        resort = np.lexsort((unc, dist_best[tied]))
        sorted_labels[tied] = label_idx[resort]
        order[tied] = resort + (tied * n)[:, None]
        su = np.take_along_axis(unc, resort, axis=1)
        valid[tied, :-1] |= su[:, :-1] != su[:, 1:]
    rows, pos, gain = _split_gains(sorted_labels, valid, class_totals)

    # per row, the first cut by larger gain, then larger margin, then smaller threshold: the
    # segmented maxima of each key in turn, since kept cuts are row-major with ascending positions
    # and every row keeps at least one cut (its last is always valid)
    at = order[rows, pos]
    margin = best[order[rows, np.minimum(pos + 1, n - 1)]] - best[at]  # 0.0 at the last cut
    starts = np.searchsorted(rows, np.arange(c_total))
    top = gain == np.maximum.reduceat(gain, starts)[rows]
    top &= margin == np.maximum.reduceat(np.where(top, margin, -np.inf), starts)[rows]
    first = np.flatnonzero(top)
    first = first[np.searchsorted(rows[first], np.arange(c_total))]
    return gain[first], margin[first], at[first] % n


def _own_picks(quality: np.ndarray, margin: np.ndarray, start: np.ndarray, stop: np.ndarray, k: int) -> np.ndarray:
    """Each row's own greedy picks, at most ``k``: a ``(2, picks)`` array of rows and columns, in no order.

    Row ``i`` holds a source's candidates and column ``j`` the window ``[start[j],
    stop[j])``, in (length, offset) order.  Each round, every row with candidates
    left picks its highest quality, then largest margin, then first column (the
    selection key within one source), and drops every window overlapping the pick.
    """
    left = quality.copy()  # -inf marks a dropped candidate
    picks = []
    for _ in range(k):
        top = left.max(axis=1)
        live = np.flatnonzero(top > -np.inf)
        if not len(live):
            break
        col = np.argmax(np.where(left[live] == top[live, None], margin[live], -np.inf), axis=1)
        left[live] = np.where((start < stop[col, None]) & (stop > start[col, None]), -np.inf, left[live])
        picks.append((live, col))
    return np.concatenate(picks, axis=1)


# ---------------------------------------------------------------------------
# extraction and transform
# ---------------------------------------------------------------------------

class _Shapelets(list):
    """An extraction's shapelets, in selection order, with the train split's transform by them
    (``train_features``) and whether the data's certain view selects them alike (``certain_alike``)."""

    certain_alike = False
    train_features: UncertainDataset


def extract_shapelets(train: UncertainDataset, config: ExtractionConfig = ExtractionConfig()) -> list[UncertainShapelet]:
    """Score every candidate window and return the top k after pruning.

    Candidates are the prefixes of stems ``(offset, source)`` of length up
    to ``min(max_len, m - offset)``.  The distance kernel yields staging
    blocks of stems (the layout of :func:`_grid_min_dissims`).  A block's rows
    are scored in fixed slices, one split sweep of at most ``_SWEEP_ELEMS``
    distance cells (or one row) each, whatever lengths a slice spans, into a
    ``(3, sources, candidates)`` table of ``quality``, ``margin`` and
    ``thr_at`` (the threshold's series) per block of sources.  It holds only
    real candidates, in (length, offset) order: 3/n of a block's minima when
    a block holds every offset, about 3.0 MB at m = 500 with one source per
    block, whatever n is.  After a block's last offset block,
    :func:`_own_picks` keeps its sources' own greedy picks.  One lexsort of
    at most ``n * min(k, m // min_len)`` picks gives the output in selection
    order: quality descending, ties broken by larger split margin, shorter
    length, then smaller (source, offset).  A candidate overlapping an
    already-selected candidate from the same source series is pruned.
    The first scoring runs the kernel's best-only path (its full path on certain data).  It stands unless it
    meets an exact best tie, which only uncertainty minima order, or an uncertainty sum could overflow (the
    bound below): a tied sweep stops its worker, and past the bound the first scoring is skipped.  Then every
    candidate is scored once on the full path, so ``NumericOverflowError`` is raised exactly where the full
    path raises it.  Each worker takes a contiguous slice of the sources and runs one kernel
    call, the split sweeps and the per-source selection on it.  Tiles are
    bounded by ``_TILE_ELEMS`` and sweeps by ``_SWEEP_ELEMS`` (or one row)
    per worker, and staging blocks by ``_KERNEL_CHUNK_ELEMS`` over all
    workers; a worker sweeps a block's last slice before the kernel stages its
    next block.  Output is deterministic and independent of the worker count.
    Each threshold is the shapelet's cell of the train transform at the threshold's series: extraction
    transforms the whole train split once, in one :func:`shapelet_transform` call.
    The result is a ``list`` that carries that transform as ``train_features``, so that a pipeline does not
    transform the train split again.  Its ``certain_alike`` is set when the first scoring stood: then the
    certain view (zero uncertainties) selects these shapelets and threshold best estimates, and its transform
    gives these best minima.
    """
    best, unc = train.best, train.uncertainty
    n, m = best.shape
    classes, label_idx = _class_index(train.labels)
    if len(classes) < 2:
        raise ValueError("extraction needs at least two classes in the training set")

    min_len = config.min_len
    max_len = config.max_len if config.max_len is not None else m
    if min_len > m:
        raise ConfigurationError(f"length range [{min_len}, {max_len}] admits no candidate in series of length {m}")
    if max_len > m:
        raise ConfigurationError(f"max_len {max_len} exceeds series length {m}")
    k = config.k if config.k is not None else min(10 * len(classes), MAX_DEFAULT_K)

    class_totals = np.bincount(label_idx, minlength=len(classes))

    # the longest prefix ``ends`` of a stem is non-increasing in its offset.  A source's candidates are its
    # columns, in (length, offset) order: each column's length and offset index
    offsets = np.arange(0, m - min_len + 1, config.candidate_stride)
    ends = np.minimum(max_len, m - offsets)
    li, col_k = np.nonzero(np.arange(min_len, max_len + 1)[:, None] <= ends)
    col_len = min_len + li
    col_off = offsets[col_k]

    step = max(1, _SWEEP_ELEMS // n)  # rows of one split sweep: at most _SWEEP_ELEMS cells, or one row

    def score(part: slice, full: bool) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
        u = unc if full else np.zeros_like(unc)  # zero uncertainties take the best-only path
        picks = []  # the part's own picks, per source block: table cells, sources, columns
        for o, s, min_b, min_u in _grid_min_dissims(
            best[part], u[part], config.candidate_stride, ends, min_len, best, u
        ):
            if o.start == 0:  # a source block's first offset block
                table = np.empty((3, s.stop - s.start, len(col_k)))
            # the block's rows, in (length, offset, source) order, are the table cells of its offsets' columns,
            # source-minor; each sweep takes the next slice of them, whatever lengths it spans
            cols = np.flatnonzero((col_k >= o.start) & (col_k < o.stop))
            cells = (cols[:, None] + len(col_k) * np.arange(s.stop - s.start)).ravel()  # in a plane of the table
            for r in range(0, len(min_b), step):
                rows = slice(r, r + step)
                split = _batch_best_splits(min_b[rows], min_u[rows] if full else None, label_idx, class_totals)
                if split is None:  # best-only minima order no best tie
                    return None
                table.reshape(3, -1)[:, cells[rows]] = split
                del split  # not held through the next sweep, which raised extract-motif's peak RSS by 0.2 MB
            if o.stop == len(ends):  # the source block is scored: keep only its sources' own picks
                src, col = _own_picks(table[0], table[1], col_off, col_off + col_len, k)
                picks.append((table[:, src, col], src + part.start + s.start, col))
        return picks

    # Every u + v is at most 2 * max(unc), and every sum 2 * sum(|d| * (u + v)) at most 8 * max_len * max|best|
    # * max(unc): below 2**1000 no uncertainty minimum overflows, so the best-only path raises NumericOverflowError
    # exactly where the full path would.  On certain data the first scoring runs the full path, where no tie stops it.
    certain = not unc.any()
    bound = max(2.0, 8.0 * max_len * float(np.abs(best).max())) * float(unc.max())  # nan on certain huge data
    stands = certain or bound < 2.0**1000
    if stands:
        first = _in_slices(n, lambda part: score(part, certain))
        stands = None not in first  # None where a best-only sweep met a best tie
    scored = first if stands else _in_slices(n, lambda part: score(part, True))

    # the global greedy's picks are the first k, in key order, of every source's own picks
    cells, source, column = (np.concatenate(x, axis=-1) for x in zip(*(p for picks in scored for p in picks)))
    sel = np.lexsort((col_off[column], source, col_len[column], -cells[1], -cells[0]))[:k]
    length, source, offset = col_len[column[sel]], source[sel], col_off[column[sel]]
    shapelets = [  # each threshold, set below, is its shapelet's cell of the train transform at the threshold's series
        UncertainShapelet(UncertainVector(best[s, o : o + l], unc[s, o : o + l]), s, o, q, UncertainValue(0.0))
        for l, s, o, q in zip(*(x.tolist() for x in (length, source, offset, cells[0, sel])))
    ]
    features = shapelet_transform(train, shapelets)
    at = cells[2, sel].astype(int), np.arange(len(shapelets))
    thr_b, thr_u = (x[at].tolist() for x in (features.best, features.uncertainty))
    out = _Shapelets(replace(sh, split_threshold=UncertainValue(b, u)) for sh, b, u in zip(shapelets, thr_b, thr_u))
    out.certain_alike = stands
    out.train_features = features
    return out


def _chunk_sums(
    cand: np.ndarray, reach: list[int], windows: list[int], x_b: np.ndarray, x_u: np.ndarray | None,
    sums: np.ndarray, spare: np.ndarray,
) -> None:
    """Write a row chunk's window sums into ``sums``: step ``i`` adds index ``i`` of the ``(2, k, l)`` longest-first
    shapelets ``cand`` to the first ``reach[i]`` shapelets' first ``windows[i]`` windows of the ``(m, rows)`` series,
    index-ascending as ``udissim`` folds, a term ``(s - x)**2`` or, given ``x_u``, ``(u_s + u_x) * |s - x|``."""
    r = x_b.shape[1]
    for i, (j, w) in enumerate(zip(reach, windows)):
        t = sums if i == 0 else spare[: j * w * r].reshape(j, w, r)  # the first step writes, the others add
        np.subtract(cand[0, :j, i, None, None], x_b[None, i : i + w], out=t)
        if x_u is None:
            t *= t
        else:
            np.abs(t, out=t)
            t *= cand[1, :j, i, None, None] + x_u[None, i : i + w]
        if i:
            sums[:j, :w] += t


def shapelet_transform(
    d: UncertainDataset, shapelets: Sequence[UncertainShapelet]
) -> UncertainDataset:
    """Distance of every instance to every shapelet, as an ``(n, k)`` dataset.

    Entry ``(i, j)`` is the minimum uncertain dissimilarity from
    ``shapelets[j].values`` to any equal-length window of instance ``i``;
    rows follow the instance order and carry the instance labels.  On the
    training series it holds each shapelet's split threshold, which
    extraction reads from here.  Each worker takes a contiguous slice of the
    instances in chunks of at most ``_ROW_CHUNK_ELEMS // (k * m)`` rows, or
    one, copied contiguous as ``(m, rows)``.  With the shapelets ordered
    longest first, one pass (:func:`_chunk_sums`) grows the window sums of
    every length, and each entry's best minimum is taken over its shapelet's
    own windows.  On uncertain data the entry folds ``(u_s + u_x) * |s - x|``
    at its first minimizing window, index-ascending from ``+0.0``, and
    doubles it, as the full path does; a chunk where some entry's best minimum
    several windows attain folds every window in a second pass and takes each
    entry's minimum over its minimizing windows.  On certain data every
    uncertainty is ``+0.0``.  ``NumericOverflowError`` is raised on any
    non-finite entry, which is where the full path raises it.
    """
    if not shapelets:
        raise ValueError("shapelets must be non-empty")
    best, unc = d.best, d.uncertainty
    n, m = best.shape
    k = len(shapelets)
    order = np.array(sorted(range(k), key=lambda j: -shapelets[j].length))  # longest first
    length = np.array([shapelets[j].length for j in order])
    if length[0] > m:
        raise DimensionMismatchError(f"window length {length[length > m][-1]} exceeds series length {m}")
    cand = np.zeros((2, k, length[0]))  # best estimates and uncertainties, zero past each shapelet's length
    for c, j in enumerate(order):
        cand[:, c, : length[c]] = shapelets[j].values.best, shapelets[j].values.uncertainty
    certain = not (unc.any() or cand[1].any())
    # step i of _chunk_sums spans the windows of the shortest shapelet with index i; shapelet c's own are below ends[c]
    reach = np.count_nonzero(length[:, None] > np.arange(length[0]), axis=0).tolist()
    ends = m + 1 - length
    windows = ends[np.array(reach) - 1].tolist()
    own = (np.arange(windows[0]) < ends[:, None])[..., None]
    out_b, out_u = np.empty((n, k)), np.zeros((n, k))
    rows = max(1, _ROW_CHUNK_ELEMS // (k * m))

    def fill(part: slice) -> None:
        acc, spare = np.empty(k * windows[0] * rows), np.empty(k * windows[0] * rows)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked on the output
            for r0 in range(part.start, part.stop, rows):
                r1 = min(r0 + rows, part.stop)
                r = r1 - r0
                x_b = np.ascontiguousarray(best[r0:r1].T)
                sums = acc[: k * windows[0] * r].reshape(k, windows[0], r)
                _chunk_sums(cand, reach, windows, x_b, None, sums, spare)
                mb = np.min(sums, axis=1, where=own, initial=np.inf)
                out_b[r0:r1, order] = mb.T
                if certain:
                    continue
                x_u = np.ascontiguousarray(unc[r0:r1].T)
                tied = sums == mb[:, None]
                tied &= own
                if np.count_nonzero(tied) > mb.size:  # some entry's best minimum is attained at several windows
                    _chunk_sums(cand, reach, windows, x_b, x_u, sums, spare)  # every window of every entry
                    mu = 2.0 * np.min(sums, axis=1, where=tied, initial=np.inf)
                else:
                    # each entry's uncertainty terms at its first minimizing window, gathered at their raveled
                    # positions in x (clipped past the series end, which no entry reads).  Uncertainties are stored
                    # as absolute values, so no term is -0.0 and the partial sum at index l - 1 is the fold from +0.0
                    pos = (tied.argmax(axis=1) + np.arange(length[0])[:, None, None]) * r + np.arange(r)
                    xb, xu = np.take(x_b, pos, mode="clip"), np.take(x_u, pos, mode="clip")
                    s_b, s_u = cand.transpose(0, 2, 1)[..., None]
                    np.subtract(s_b, xb, out=xb)
                    np.abs(xb, out=xb)
                    xu += s_u
                    xu *= xb  # (u_s + u_x) * |s - x|, the full path's terms
                    mu = 2.0 * np.add.accumulate(xu, axis=0, out=xb)[length - 1, np.arange(k)]
                out_u[r0:r1, order] = mu.T

    _in_slices(n, fill, n * k * m // _ROW_CHUNK_ELEMS)
    if not (np.isfinite(out_b).all() and np.isfinite(out_u).all()):
        raise NumericOverflowError("dissimilarity overflowed to non-finite values")
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


def save_shapelets(shapelets: Sequence[UncertainShapelet], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(shapelets_to_json(shapelets) + "\n")


def load_shapelets(path: str | Path) -> list[UncertainShapelet]:
    out = []
    try:
        for doc in json.loads(Path(path).read_text(encoding="utf-8")):
            values = UncertainVector(
                [_json_real(v["best"], "values[].best") for v in doc["values"]],
                [_json_real(v["uncertainty"], "values[].uncertainty", 0) for v in doc["values"]],
            )
            length = _json_int(doc["length"], "length", 1)
            if len(values) != length:
                raise ValueError(f"shapelet declares length {length} but has {len(values)} values")
            out.append(
                UncertainShapelet(
                    values=values,
                    source_instance=_json_int(doc["source_instance"], "source_instance", 0),
                    start_offset=_json_int(doc["start_offset"], "start_offset", 0),
                    quality=_json_real(doc["quality"], "quality"),
                    split_threshold=UncertainValue(
                        _json_real(doc["threshold"]["best"], "threshold.best"),
                        _json_real(doc["threshold"]["uncertainty"], "threshold.uncertainty", 0),
                    ),
                )
            )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed shapelet file: {type(exc).__name__}: {exc}") from None
    return out
