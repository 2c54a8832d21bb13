import collections
import json
import math
import os
import sys
import threading
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import ust.shapelet
from ust import (
    ConfigurationError,
    DimensionMismatchError,
    ExtractionConfig,
    NumericOverflowError,
    UncertainDataset,
    UncertainShapelet,
    UncertainValue,
    UncertainVector,
    extract_shapelets,
    load_shapelets,
    save_shapelets,
    shapelet_transform,
)
from ust.shapelet import _batch_best_splits, _grid_min_dissims, _own_picks, shapelets_to_json


def dataset(rows):
    """A dataset of ``(best, label, unc)`` rows; ``unc=None`` is all zeros."""
    return UncertainDataset.from_arrays(
        [b for b, _, _ in rows],
        [[0.0] * len(b) if u is None else u for b, _, u in rows],
        [lab for _, lab, _ in rows],
    )


def random_dataset(rng, n, m, integer_grid=False):
    """Two-class dataset; the grid variant forces heavy distance ties."""
    rows = []
    for i in range(n):
        label = "A" if i < n // 2 else "B"
        if integer_grid:
            best = rng.integers(0, 3, m).astype(float)
            unc = rng.choice([0.0, 0.5], m)
        else:
            best = rng.normal(0, 1, m)
            unc = rng.uniform(0, 0.5, m)
        rows.append((best.tolist(), label, unc.tolist()))
    return dataset(rows)


# three series whose first exact best tie, at min_len 2, is in a candidate row past the first two of length 2
MID_LENGTH_TIE = [[3.0, 3.0, 2.0, 1.0, 0.0], [1.0, 2.0, 2.0, 0.0, 2.0], [2.0, 0.0, 0.0, 1.0, 3.0]]


def run_oracle(d, cfg):
    max_len = cfg.max_len if cfg.max_len is not None else d.series_length
    k = cfg.k if cfg.k is not None else min(10 * len(set(d.labels)), 200)
    return oracles.extract(
        d.best.tolist(), d.uncertainty.tolist(), d.labels, cfg.min_len, max_len, k, cfg.candidate_stride
    )


def assert_matches_oracle(d, cfg):
    """Extraction equals the brute-force oracle entry by entry; returns the shapelets."""
    got = extract_shapelets(d, cfg)
    expected = run_oracle(d, cfg)
    assert len(got) == len(expected)
    for sh, (l, s, o, gain, tb, tu) in zip(got, expected):
        assert (sh.length, sh.source_instance, sh.start_offset) == (l, s, o)
        assert sh.quality == gain
        assert (sh.split_threshold.best, sh.split_threshold.uncertainty) == (tb, tu)
    return got


@st.composite
def extraction_cases(draw):
    """A small dataset and config; the grid variant forces exact distance ties."""
    n_classes = draw(st.integers(2, 3))
    n = draw(st.integers(n_classes, 6))
    extra = draw(st.lists(st.integers(0, n_classes - 1), min_size=n - n_classes, max_size=n - n_classes))
    labels = draw(st.permutations([str(c) for c in range(n_classes)] + [str(c) for c in extra]))
    m = draw(st.integers(1, 9))
    if draw(st.booleans()):
        best_el, unc_el = st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.sampled_from([0.0, 0.5])
    else:
        best_el, unc_el = st.floats(-10, 10), st.floats(0, 1)
    if draw(st.booleans()):  # certain data, which the kernel scores without its uncertainty terms
        unc_el = st.just(0.0)
    best = draw(st.lists(st.lists(best_el, min_size=m, max_size=m), min_size=n, max_size=n))
    unc = draw(st.lists(st.lists(unc_el, min_size=m, max_size=m), min_size=n, max_size=n))
    min_len = draw(st.integers(1, m))
    cfg = ExtractionConfig(
        min_len=min_len,
        max_len=draw(st.integers(min_len, m)),
        k=draw(st.integers(1, 30)),
        candidate_stride=draw(st.integers(1, 3)),
    )
    return UncertainDataset.from_arrays(best, unc, labels), cfg


def sliding_min(cand_b, cand_u, ser_b, ser_u):
    """Every candidate row against every series row at its full length: a (C, N) pair."""
    cand_b, cand_u = np.asarray(cand_b, dtype=float), np.asarray(cand_u, dtype=float)
    l = cand_b.shape[1]
    blocks = list(
        _grid_min_dissims(
            cand_b, cand_u, 1, np.array([l]), l,
            np.asarray(ser_b, dtype=float), np.asarray(ser_u, dtype=float),
        )
    )
    return np.concatenate([b for *_, b, _ in blocks]), np.concatenate([u for *_, u in blocks])


def by_length(blocks, min_len):
    """The kernel's blocks split by ``reach``: ``(l, offsets, sources, min_b, min_u)`` per length.

    ``offsets`` is the leading slice of a block's offsets that reach ``l``,
    and the minima are their ``(offsets, sources, n)`` views.
    """
    for offsets, sources, reach, min_b, min_u in blocks:
        width, n = sources.stop - sources.start, min_b.shape[1]
        assert reach[0] == offsets.stop - offsets.start and (np.diff(reach) <= 0).all()
        assert min_b.shape == min_u.shape == (reach.sum() * width, n)
        cuts = np.cumsum(reach[:-1]) * width
        for i, (mb, mu) in enumerate(zip(np.split(min_b, cuts), np.split(min_u, cuts))):
            o = slice(offsets.start, offsets.start + reach[i])
            yield min_len + i, o, sources, mb.reshape(reach[i], width, n), mu.reshape(reach[i], width, n)


@st.composite
def prefix_kernel_cases(draw):
    """Sources, a stride-spaced offset grid with non-increasing ends, series and both budgets."""
    if draw(st.booleans()):
        el, unc_el = st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.sampled_from([0.0, 0.5])
    else:
        el, unc_el = st.floats(-10, 10), st.floats(0, 1)
    if draw(st.booleans()):  # certain sources and series
        unc_el = st.just(0.0)
    n_src, width = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    min_len = draw(st.integers(1, min(width, m)) | st.just(min(width, m)))
    stride = draw(st.integers(1, 3))
    arrays = [
        np.array(draw(st.lists(st.lists(e, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        for e, rows, cols in ((el, n_src, width), (unc_el, n_src, width), (el, n, m), (unc_el, n, m))
    ]
    ends = []
    for k in range(draw(st.integers(1, (width - min_len) // stride + 1))):
        ends.append(draw(st.integers(min_len, min([m, width - stride * k] + ends[-1:]))))
    budget = draw(st.sampled_from([1, 37, ust.shapelet._KERNEL_CHUNK_ELEMS]))
    tile = draw(st.sampled_from([1, ust.shapelet._TILE_ELEMS]))
    return arrays, stride, np.array(ends), min_len, budget, tile


def window_min(cand_b, cand_u, ser_b, ser_u):
    """One (candidate, series) entry of the batch distance kernel."""
    db, du = sliding_min([cand_b], [cand_u], [ser_b], [ser_u])
    return db[0, 0], du[0, 0]


def assert_transform_matches_oracle(d, shapelets):
    """The transform equals ``oracles.transform`` bit for bit."""
    got = shapelet_transform(d, shapelets)
    values = [(sh.values.best.tolist(), sh.values.uncertainty.tolist()) for sh in shapelets]
    expected = np.array(oracles.transform(d.best.tolist(), d.uncertainty.tolist(), values)).reshape(len(d), -1, 2)
    assert np.stack([got.best, got.uncertainty], axis=-1).tobytes() == expected.tobytes()


def fold_spy():
    """A spy for the transform's ``_chunk_sums`` and the list it fills: the series rows of each chunk folded at
    every window.

    ``_chunk_sums`` sums the best estimates of every chunk, and folds the uncertainty terms (given ``x_u``) only
    of a chunk where some entry's best minimum is attained at several windows.
    """
    chunk_sums, folds = ust.shapelet._chunk_sums, []

    def spy(cand, reach, windows, x_b, x_u, sums, spare):
        if x_u is not None:
            folds.append([row.tobytes() for row in x_b.T])
        chunk_sums(cand, reach, windows, x_b, x_u, sums, spare)

    return spy, folds


@st.composite
def transform_cases(draw):
    """Series and shapelets of mixed lengths, one as long as the series, and a row-chunk budget.

    The grid variant ties windows.  Every chunk holds every shapelet; the budget
    gives one row per chunk, two (which splits an odd number of rows
    unevenly), or the default's many.
    """
    if draw(st.booleans()):
        el, unc_el = st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 0.5])
    else:
        el, unc_el = st.floats(-10, 10), st.floats(0, 1)
    shapelet_unc = st.just(0.0) if draw(st.booleans()) else unc_el  # certain shapelets fold the series' uncertainty
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    best = draw(st.lists(st.lists(el, min_size=m, max_size=m), min_size=n, max_size=n))
    unc = draw(st.lists(st.lists(unc_el, min_size=m, max_size=m), min_size=n, max_size=n))
    shapelets = []
    for l in draw(st.permutations(draw(st.lists(st.integers(1, m), max_size=4)) + [m])):
        values = [draw(st.lists(e, min_size=l, max_size=l)) for e in (el, shapelet_unc)]
        shapelets.append(UncertainShapelet(UncertainVector(*values), 0, 0, 0.0, UncertainValue(0.0)))
    budget = draw(st.sampled_from([1, 2 * len(shapelets) * m + 1, ust.shapelet._ROW_CHUNK_ELEMS]))
    return UncertainDataset.from_arrays(best, unc, ["A"] * n), shapelets, budget


def sweep(dist_b, dist_u, label_idx, totals):
    """``_batch_best_splits`` with each threshold read back as (best, uncertainty).

    The sweep is given NaN uncertainties in the rows without an exact best
    tie, so outputs that match the oracle show it reads only the tied rows.
    Also checks that without uncertainties it returns ``None`` exactly
    when some row holds a best tie, and otherwise gives the same outputs.
    """
    tied = np.array([len(set(row)) < len(row) for row in dist_b.tolist()])
    out = _batch_best_splits(dist_b, np.where(tied[:, None], dist_u, np.nan), label_idx, totals)
    if tied.any():
        assert _batch_best_splits(dist_b, None, label_idx, totals) is None
    else:
        assert all(np.array_equal(a, b) for a, b in zip(_batch_best_splits(dist_b, None, label_idx, totals), out))
    g, mg, at = out
    rows = np.arange(len(dist_b))
    return g, mg, dist_b[rows, at], dist_u[rows, at]


def row_split(pairs, labels):
    """One row of the batch split sweep: (gain, margin, (thr_b, thr_u))."""
    classes = sorted(set(labels))
    label_idx = np.array([classes.index(lab) for lab in labels])
    totals = np.bincount(label_idx, minlength=len(classes))
    g, mg, tb, tu = sweep(
        np.array([[b for b, _ in pairs]]), np.array([[u for _, u in pairs]]), label_idx, totals
    )
    return g[0], mg[0], (tb[0], tu[0])


def oracle_split(pairs, labels, classes):
    """``oracles.split_quality`` without its near-side count, which the batch sweep does not report."""
    return oracles.split_quality(pairs, labels, classes)[:3]


@st.composite
def split_sweeps(draw):
    """One ``_batch_best_splits`` call: K classes, and rows of mixed tie patterns.

    A row is distinct reals; or reals whose only ties are exact best ties with
    different uncertainties; or all-equal pairs; or a small grid tied in both
    components.
    """
    k = draw(st.integers(2, 5))
    n = k if draw(st.booleans()) else draw(st.integers(k, 12))  # one instance per class, or more
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = draw(st.permutations(list(range(k)) + extra))
    rows = []
    kinds = st.sampled_from(["distinct", "best-tie", "equal", "grid"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=12)):
        if kind == "grid":
            b = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            u = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=n, max_size=n))
        elif kind == "equal":
            b, u = [draw(st.floats(0, 4))] * n, [draw(st.floats(0, 1))] * n
        else:
            tie = kind == "best-tie"
            b = draw(st.lists(st.integers(0, 400), min_size=n - tie, max_size=n - tie, unique=True))
            b = [x / 8 for x in b + b[-1:] * tie]
            u = [x / 8 for x in draw(st.lists(st.integers(0, 80), min_size=n, max_size=n, unique=True))]
            order = draw(st.permutations(range(n)))
            b, u = [b[i] for i in order], [u[i] for i in order]
        rows.append((b, u))
    return np.array([r[0] for r in rows], dtype=float), np.array([r[1] for r in rows], dtype=float), labels


class TestSubsequenceDistance:
    """The window minimum of ``_grid_min_dissims`` against ``oracles.min_dissim``."""

    def test_self_match(self):
        assert window_min([1.0, 2.0, 3.0], [0.0] * 3, [1.0, 2.0, 3.0], [0.0] * 3) == (0.0, 0.0)

    def test_finds_best_window(self):
        assert window_min([1.0, 1.0], [0.0, 0.0], [0.0, 1.0, 1.0, 5.0], [0.0] * 4) == (0.0, 0.0)

    def test_equal_bests_resolve_on_uncertainty(self):
        # two windows at squared distance 1; uncertainties 0.6 vs 0.2
        d = window_min([1.0], [0.0], [2.0, 0.0], [0.3, 0.1])
        oracle = min(
            oracles.dissim([1.0], [0.0], [2.0], [0.3]),
            oracles.dissim([1.0], [0.0], [0.0], [0.1]),
        )
        assert d == oracle
        assert d[1] == pytest.approx(0.2)

    def test_subsequence_longer_than_series(self):
        with pytest.raises(DimensionMismatchError):
            window_min([1.0, 2.0, 3.0], [0.0] * 3, [1.0, 2.0], [0.0] * 2)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            l = int(rng.integers(1, 6))
            m = int(rng.integers(l, 12))
            args = (
                rng.normal(0, 1, l).tolist(),
                rng.uniform(0, 1, l).tolist(),
                rng.normal(0, 1, m).tolist(),
                rng.uniform(0, 1, m).tolist(),
            )
            assert window_min(*args) == oracles.min_dissim(*args)


class TestInformationGain:
    """Gains of the cuts that ``_batch_best_splits`` picks."""

    def test_perfect_balanced_split(self):
        gain, _, thr = row_split([(1, 0), (2, 0), (3, 0), (4, 0)], list("AABB"))
        assert gain == 1.0
        assert thr == (2.0, 0.0)

    def test_threshold_comparison_uses_uncertain_order(self):
        # 2 ± 0.1 sorts below 2 ± 0.3, so the cut between them separates A from B
        gain, _, thr = row_split([(2, 0.3), (2, 0.1)], list("AB"))
        assert thr == (2.0, 0.1)
        assert gain == 1.0


class TestBestSplit:
    """Best cut per row of ``_batch_best_splits`` against ``oracles.split_quality``."""

    def test_two_singleton_classes(self):
        gain, margin, thr = row_split([(1, 0), (5, 0)], list("AB"))
        assert gain == 1.0
        assert thr == (1.0, 0.0)
        assert margin == 4.0

    def test_all_equal_distances(self):
        gain, margin, thr = row_split([(2, 0.5)] * 4, list("AABB"))
        assert gain == 0.0
        assert margin == 0.0
        assert thr == (2.0, 0.5)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(2, 10))
            labels = [str(rng.integers(0, 2)) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = "0"
                labels[-1] = "1"
            if trial % 2:
                pairs = [(float(rng.integers(0, 3)), float(rng.choice([0, 0.5]))) for _ in range(n)]
            else:
                pairs = [(float(rng.normal()), float(rng.uniform(0, 1))) for _ in range(n)]
            assert row_split(pairs, labels) == oracle_split(pairs, labels, sorted(set(labels)))

    @given(split_sweeps())
    @example((np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0]]), np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.25]]), [0, 1, 0]))
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_oracle_per_row(self, case):
        # rows are independent: each equals the scalar oracle, whichever rows of the call hold ties
        dist_b, dist_u, labels = case
        totals = np.bincount(labels)
        g, mg, tb, tu = sweep(dist_b, dist_u, np.array(labels), totals)
        for row in range(len(dist_b)):
            pairs = list(zip(dist_b[row].tolist(), dist_u[row].tolist()))
            expected = oracle_split(pairs, labels, sorted(set(labels)))
            assert (g[row], mg[row], (tb[row], tu[row])) == expected

    def test_uncertainties_are_read_only_for_rows_with_a_best_tie(self):
        dist_b = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [0.5, 0.25, 4.0], [3.0, 3.0, 3.0]])
        dist_u = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.0, 0.0], [0.5, 0.25, 0.5]])
        labels, totals = np.array([0, 1, 0]), np.array([2, 1])
        for rows in ([1], [0, 3], [0, 1, 2, 3]):  # rows 1 and 3 hold a best tie
            assert _batch_best_splits(dist_b[rows], None, labels, totals) is None
        untied = _batch_best_splits(dist_b[[0, 2]], None, labels, totals)
        tied = np.array([False, True, False, True])
        g, mg, at = _batch_best_splits(dist_b, np.where(tied[:, None], dist_u, np.nan), labels, totals)
        for row in range(len(dist_b)):
            pairs = list(zip(dist_b[row].tolist(), dist_u[row].tolist()))
            expected = oracle_split(pairs, labels.tolist(), [0, 1])
            assert (g[row], mg[row], (dist_b[row, at[row]], dist_u[row, at[row]])) == expected
        assert all(np.array_equal(a, b[[0, 2]]) for a, b in zip(untied, (g, mg, at)))

    def test_needs_two_instances_and_classes(self):
        with pytest.raises(ValueError):
            extract_shapelets(dataset([([1.0, 2.0, 3.0], "A", None)]), ExtractionConfig())
        with pytest.raises(ValueError):
            extract_shapelets(
                dataset([([1.0, 2.0, 3.0], "A", None), ([2.0, 3.0, 4.0], "A", None)]),
                ExtractionConfig(),
            )


class TestBatchKernels:
    def test_sliding_min_matches_scalar(self):
        rng = np.random.default_rng(11)
        sb = rng.normal(0, 1, (5, 4))
        su = rng.uniform(0, 1, (5, 4))
        tb = rng.normal(0, 1, (3, 9))
        tu = rng.uniform(0, 1, (3, 9))
        db, du = sliding_min(sb, su, tb, tu)
        for c in range(5):
            for n in range(3):
                expected = oracles.min_dissim(
                    sb[c].tolist(), su[c].tolist(), tb[n].tolist(), tu[n].tolist()
                )
                assert (db[c, n], du[c, n]) == expected

    @pytest.mark.parametrize("budget", [1, 40, 200])
    def test_sliding_min_blocking_is_bit_identical(self, budget, monkeypatch):
        rng = np.random.default_rng(budget)
        sb = rng.normal(0, 1, (6, 4))
        su = rng.uniform(0, 1, (6, 4))
        tb = rng.integers(0, 3, (9, 12)).astype(float)
        tu = rng.choice([0.0, 0.5], (9, 12))
        expected = sliding_min(sb, su, tb, tu)
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
        got = sliding_min(sb, su, tb, tu)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()

    @given(prefix_kernel_cases())
    @example(  # certain, tied values at stride 2: three offsets reaching lengths 4, 4 and 2
        ([np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0, 1.0, 1.0]]), np.zeros((2, 6)),
          np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]), np.zeros((2, 4))], 2, np.array([4, 4, 2]), 2, 1, 1)
    )
    @example(  # certain, min_len == m: one window per series
        ([np.array([[0.5, 1.0, 0.5]]), np.zeros((1, 3)), np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]]),
          np.zeros((2, 3))], 1, np.array([3]), 3, 37, 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_prefix_min_matches_oracle_property(self, case):
        (src_b, src_u, ser_b, ser_u), stride, ends, min_len, budget, tile = case
        for workers in (1, 2):
            seen = {}
            lock = threading.Lock()

            def collect(part):
                # one worker's kernel call over its slice of the sources, keyed by global source
                for l, offsets, sources, min_b, min_u in by_length(
                    _grid_min_dissims(src_b[part], src_u[part], stride, ends, min_len, ser_b, ser_u), min_len
                ):
                    offs, srcs = range(len(ends))[offsets], range(len(src_b))[part][sources]
                    assert min_b.shape == min_u.shape == (len(offs), len(srcs), len(ser_b))
                    with lock:
                        for i, k in enumerate(offs):
                            for j, s in enumerate(srcs):
                                assert (k, s, l) not in seen
                                seen[k, s, l] = min_b[i, j].tolist(), min_u[i, j].tolist()

            with (
                patch.object(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget),
                patch.object(ust.shapelet, "_TILE_ELEMS", tile),
                patch.object(ust.shapelet, "_CPUS", workers),
            ):
                ust.shapelet._in_slices(len(src_b), collect)
            assert set(seen) == {
                (k, s, l) for k in range(len(ends)) for s in range(len(src_b)) for l in range(min_len, ends[k] + 1)
            }
            for (k, s, l), (b, u) in seen.items():
                window = slice(stride * k, stride * k + l)
                cand = src_b[s, window].tolist(), src_u[s, window].tolist()
                for r in range(len(ser_b)):
                    assert (b[r], u[r]) == oracles.min_dissim(*cand, ser_b[r].tolist(), ser_u[r].tolist())

    @pytest.mark.parametrize("budget", [1, 37, ust.shapelet._KERNEL_CHUNK_ELEMS])
    def test_one_tile_scratch_per_call_in_source_major_order(self, budget, monkeypatch):
        # at (n, m) = (2, 9) and min_len 3 a budget of 1 stages one stem per block and 37 two, so a call
        # has several offset blocks per source; the default budget stages every stem in one block
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
        monkeypatch.setattr(ust.shapelet, "_CPUS", 1)
        fill, scratch = ust.shapelet._fill_tile, []
        monkeypatch.setattr(ust.shapelet, "_fill_tile", lambda *args: scratch.append(args[-3:-1]) or fill(*args))
        rng = np.random.default_rng(2)
        src_b, src_u, ser_b, ser_u = rng.normal(0, 1, (3, 9)), rng.uniform(0, 0.5, (3, 9)), rng.normal(0, 1, (2, 9)), rng.uniform(0, 0.5, (2, 9))
        ends = np.minimum(6, 9 - np.arange(7))
        spans = [(o, s) for o, s, *_ in _grid_min_dissims(src_b, src_u, 1, ends, 3, ser_b, ser_u)]
        terms, acc = scratch[0]
        assert all(np.shares_memory(t, terms) and np.shares_memory(a, acc) for t, a in scratch)
        # the offset and source blocks each partition their range, and the yields run source-major
        offs = sorted({(o.start, o.stop) for o, _ in spans})
        srcs = sorted({(s.start, s.stop) for _, s in spans})
        for cuts, total in ((offs, len(ends)), (srcs, len(src_b))):
            assert [a for a, _ in cuts] == [0] + [b for _, b in cuts[:-1]] and cuts[-1][1] == total
        assert [(o.start, o.stop, s.start, s.stop) for o, s in spans] == [(*o, *s) for s in srcs for o in offs]
        assert len(spans) == {1: 21, 37: 12}.get(budget, 1)

    @pytest.mark.parametrize("nonzero", [None, "sources", "series"])
    def test_certain_path_runs_only_without_uncertainty(self, nonzero, monkeypatch):
        # all-zero uncertainties take the certain path, which writes +0.0 uncertainty minima;
        # one nonzero uncertainty on either side takes the full path; both match the oracle
        rng = np.random.default_rng(3)
        src_b, ser_b = rng.integers(0, 3, (3, 7)).astype(float), rng.integers(0, 3, (4, 7)).astype(float)
        src_u, ser_u = np.zeros_like(src_b), np.zeros_like(ser_b)
        if nonzero is not None:
            (src_u if nonzero == "sources" else ser_u)[1, 2] = 0.5
        fill, paths = ust.shapelet._fill_tile, []
        monkeypatch.setattr(ust.shapelet, "_fill_tile", lambda *args: paths.append(args[-1]) or fill(*args))
        monkeypatch.setattr(ust.shapelet, "_TILE_ELEMS", 50)  # several tiles
        ends = np.array([6, 5, 3])
        for l, offsets, sources, min_b, min_u in by_length(_grid_min_dissims(src_b, src_u, 2, ends, 2, ser_b, ser_u), 2):
            if nonzero is None:
                assert min_u.tobytes() == np.zeros_like(min_u).tobytes()
            for i, k in enumerate(range(len(ends))[offsets]):
                for j, s in enumerate(range(len(src_b))[sources]):
                    window = slice(2 * k, 2 * k + l)
                    cand = src_b[s, window].tolist(), src_u[s, window].tolist()
                    for r in range(len(ser_b)):
                        expected = oracles.min_dissim(*cand, ser_b[r].tolist(), ser_u[r].tolist())
                        assert (min_b[i, j, r], min_u[i, j, r]) == expected
        assert len(paths) > 1 and set(paths) == {"certain" if nonzero is None else "full"}

    def test_blocking_keeps_extraction_and_transform_bytes(self, monkeypatch):
        d = random_dataset(np.random.default_rng(4), n=7, m=11, integer_grid=True)
        cfg = ExtractionConfig(min_len=2, k=12, candidate_stride=2)
        outputs, chunk = {}, ust.shapelet._ROW_CHUNK_ELEMS  # the transform's row chunks follow the small tiles
        for budget in (1, 37, ust.shapelet._KERNEL_CHUNK_ELEMS):
            for tile in (1, 300, ust.shapelet._TILE_ELEMS):
                for workers in (1, 2, 3):  # 3 workers slice the 7 sources and rows unevenly
                    monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
                    monkeypatch.setattr(ust.shapelet, "_TILE_ELEMS", tile)
                    monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", min(tile, chunk))
                    monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
                    shapelets = extract_shapelets(d, cfg)
                    features = shapelet_transform(d, shapelets)
                    outputs[budget, tile, workers] = (
                        shapelets_to_json(shapelets), features.best.tobytes(), features.uncertainty.tobytes()
                    )
        first = outputs[1, 1, 1]
        assert [key for key, out in outputs.items() if out != first] == []

    def test_more_workers_than_cores_under_fast_switching_keep_bytes(self, monkeypatch):
        # one-cell tiles and row chunks and a 1 us switch interval hand the GIL between workers at every
        # numpy call, so a worker writing outside its own slice of the shared table or output would show
        d = random_dataset(np.random.default_rng(5), n=9, m=12, integer_grid=True)
        cfg = ExtractionConfig(min_len=2, k=10)
        monkeypatch.setattr(ust.shapelet, "_TILE_ELEMS", 1)
        monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", 1)
        outputs = []
        for workers in (1, 5):
            monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                shapelets = extract_shapelets(d, cfg)
                features = shapelet_transform(d, shapelets)
            finally:
                sys.setswitchinterval(interval)
            outputs.append((shapelets_to_json(shapelets), features.best.tobytes(), features.uncertainty.tobytes()))
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_threads_end_with_the_call(self, workers, monkeypatch):
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", 300)  # small enough for the transform to use the workers
        d = random_dataset(np.random.default_rng(4), n=7, m=11)
        before = threading.active_count()
        shapelets = extract_shapelets(d, ExtractionConfig(min_len=2, k=4))
        assert threading.active_count() == before
        shapelet_transform(d, shapelets)
        assert threading.active_count() == before
        overflow = UncertainDataset.from_arrays([[1e200, 0.0], [-1e200, 1.0]], [[0.0] * 2] * 2, ["A", "B"])
        with pytest.raises(NumericOverflowError):
            extract_shapelets(overflow, ExtractionConfig(min_len=2))
        assert threading.active_count() == before

    def test_workers_run_in_the_callers_context(self, monkeypatch):
        # a task sharing 4 CPUs with one other task runs two workers, and each sees that share
        monkeypatch.setattr(ust.shapelet, "_CPUS", 4)
        caller, seen = threading.get_ident(), []

        def work(part):
            seen.append((part.start, part.stop, ust.shapelet._worker_count(), threading.get_ident() != caller))

        token = ust.shapelet._concurrent_tasks.set(2)
        try:
            ust.shapelet._in_slices(4, work)
        finally:
            ust.shapelet._concurrent_tasks.reset(token)
        assert sorted(seen) == [(0, 2, 2, True), (2, 4, 2, True)]

    @pytest.mark.parametrize(
        "cpus, count, chunks, parts",
        [(1, 5, None, [(0, 5)]), (2, 5, None, [(0, 2), (2, 5)]), (4, 3, None, [(0, 1), (1, 2), (2, 3)]),
         (4, 8, 2, [(0, 4), (4, 8)])],
        ids=["one-cpu", "two-cpus", "more-workers-than-units", "chunks-cap-the-workers"],
    )
    def test_results_come_in_slice_order(self, cpus, count, chunks, parts, monkeypatch):
        # every slice but the last waits until the last has run, so slice order is not completion order
        monkeypatch.setattr(ust.shapelet, "_CPUS", cpus)
        last_ran = threading.Event()

        def work(part):
            if part.stop == count:
                last_ran.set()
            else:
                assert last_ran.wait(10)
            return part.start, part.stop

        assert ust.shapelet._in_slices(count, work, chunks) == parts

    def test_worker_count_without_an_affinity_mask(self, monkeypatch):
        # platforms without os.sched_getaffinity count os.cpu_count(), or one CPU if it is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert ust.shapelet._worker_count() == 4
        token = ust.shapelet._concurrent_tasks.set(2)
        try:
            assert ust.shapelet._worker_count() == 2
        finally:
            ust.shapelet._concurrent_tasks.reset(token)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ust.shapelet._worker_count() == 1

    def test_batch_splits_match_scalar_best_split(self):
        rng = np.random.default_rng(13)
        n = 12
        labels = ["A"] * 6 + ["B"] * 6
        label_idx = np.array([0] * 6 + [1] * 6)
        # mixed continuous and tied rows
        dist_b = np.vstack(
            [rng.normal(0, 1, n) for _ in range(8)]
            + [rng.integers(0, 3, n).astype(float) for _ in range(8)]
        )
        dist_u = np.vstack(
            [rng.uniform(0, 1, n) for _ in range(8)]
            + [rng.choice([0.0, 0.5], n) for _ in range(8)]
        )
        totals = np.bincount(label_idx, minlength=2)
        g, mg, tb, tu = sweep(dist_b, dist_u, label_idx, totals)
        for row in range(dist_b.shape[0]):
            pairs = list(zip(dist_b[row].tolist(), dist_u[row].tolist()))
            assert (g[row], mg[row], (tb[row], tu[row])) == oracle_split(pairs, labels, ["A", "B"])


def planted_motif_dataset():
    rng = np.random.default_rng(5)
    rows = []
    for label, peak in (("A", 5.0), ("B", -5.0)):
        for _ in range(5):
            base = np.zeros(12)
            base[int(rng.integers(1, 9)) + 1] = peak
            rows.append((base.tolist(), label, None))
    return dataset(rows)


class TestExtraction:
    def test_planted_motif_recovered(self):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=6, k=3))
        top = shapelets[0]
        assert top.quality == 1.0  # entropy of the balanced two-class set
        assert 5.0 in top.values.best.tolist()

    def test_saturation_returns_all_survivors(self):
        train = dataset([([0.0, 1.0, 0.0, 0.0], "A", None), ([0.0, 0.0, 2.0, 0.0], "B", None)])
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=4, max_len=4, k=50))
        # single length, two sources, one offset each: at most 2 survivors
        assert 0 < len(shapelets) <= 2

    def test_deterministic(self):
        train = planted_motif_dataset()
        cfg = ExtractionConfig(min_len=3, max_len=8, k=5)
        a = extract_shapelets(train, cfg)
        b = extract_shapelets(train, cfg)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x == y

    def test_min_len_beyond_series_length(self):
        train = dataset([([1.0, 2.0], "A", None), ([3.0, 4.0], "B", None)])
        with pytest.raises(ConfigurationError):
            extract_shapelets(train, ExtractionConfig(min_len=3))

    def test_max_len_beyond_series_length_names_the_bound(self):
        # lengths 3 to 10 admit candidates in series of length 10, so the refusal names max_len alone
        train = random_dataset(np.random.default_rng(0), n=4, m=10)
        with pytest.raises(ConfigurationError, match=r"^max_len 12 exceeds series length 10$"):
            extract_shapelets(train, ExtractionConfig(min_len=3, max_len=12))
        no_range = r"^length range \[11, 12\] admits no candidate in series of length 10$"  # min_len > m: as before
        with pytest.raises(ConfigurationError, match=no_range):
            extract_shapelets(train, ExtractionConfig(min_len=11, max_len=12))

    def test_needs_two_classes(self):
        train = dataset([([1.0, 2.0, 3.0], "A", None), ([3.0, 4.0, 5.0], "A", None)])
        with pytest.raises(ValueError):
            extract_shapelets(train, ExtractionConfig())

    @pytest.mark.parametrize("seed,integer_grid", [(0, False), (1, True), (2, True)])
    def test_matches_bruteforce_oracle(self, seed, integer_grid):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, n=6, m=10, integer_grid=integer_grid)
        assert_matches_oracle(d, ExtractionConfig(min_len=3, max_len=7, k=5))

    def test_stride_matches_oracle(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, n=6, m=12)
        got = assert_matches_oracle(d, ExtractionConfig(min_len=3, max_len=6, k=4, candidate_stride=2))
        assert all(sh.start_offset % 2 == 0 for sh in got)

    @given(
        extraction_cases(),
        st.sampled_from([1, 37, ust.shapelet._KERNEL_CHUNK_ELEMS]),
        st.sampled_from([1, ust.shapelet._TILE_ELEMS]),
        st.sampled_from([1, 37, ust.shapelet._SWEEP_ELEMS]),
    )
    @example(  # source 1 keeps the touching windows [0, 2) and [2, 5); an overlapping one is pruned
        (
            UncertainDataset.from_arrays(
                [[0.5, 0.5, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0]],
                [[0.5, 0.0, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0, 0.0]],
                ["A", "B"],
            ),
            ExtractionConfig(min_len=2, max_len=3, k=3),
        ),
        ust.shapelet._KERNEL_CHUNK_ELEMS,
        ust.shapelet._TILE_ELEMS,
        ust.shapelet._SWEEP_ELEMS,
    )
    @example(  # certain data with tied distances at stride 2
        (
            UncertainDataset.from_arrays(
                [[0.0, 1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0, 1.0]],
                [[0.0] * 5] * 3,
                ["A", "B", "A"],
            ),
            ExtractionConfig(min_len=2, k=6, candidate_stride=2),
        ),
        ust.shapelet._KERNEL_CHUNK_ELEMS,
        ust.shapelet._TILE_ELEMS,
        ust.shapelet._SWEEP_ELEMS,
    )
    @example(  # certain data, min_len == m
        (
            UncertainDataset.from_arrays([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [[0.0] * 3] * 3, ["A", "B", "A"]),
            ExtractionConfig(min_len=3, k=3),
        ),
        ust.shapelet._KERNEL_CHUNK_ELEMS,
        ust.shapelet._TILE_ELEMS,
        ust.shapelet._SWEEP_ELEMS,
    )
    @example(  # certain integer data: at two rows per sweep, the first tied row (row 2) opens a mid-length sweep
        (
            UncertainDataset.from_arrays(MID_LENGTH_TIE, [[0.0] * 5] * 3, ["A", "B", "A"]),
            ExtractionConfig(min_len=2, k=3),
        ),
        ust.shapelet._KERNEL_CHUNK_ELEMS,
        ust.shapelet._TILE_ELEMS,
        6,
    )
    @example(  # the same best estimates, uncertain: that tie stops the best-only scoring in the mid-length slice
        (
            UncertainDataset.from_arrays(
                MID_LENGTH_TIE, [[0.5, 0.0, 0.25, 0.0, 0.5], [0.0, 0.5, 0.0, 0.25, 0.0], [0.25, 0.0, 0.5, 0.0, 0.25]],
                ["A", "B", "A"],
            ),
            ExtractionConfig(min_len=2, k=3),
        ),
        ust.shapelet._KERNEL_CHUNK_ELEMS,
        ust.shapelet._TILE_ELEMS,
        6,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_property(self, case, budget, tile, cap):
        # one-stem blocks and one-cell tiles put block edges everywhere; small sweep caps cut a block's
        # rows anywhere, inside a length too, so a tie can stop the best-only scoring at any sweep
        for workers in (1, 2):
            with (
                patch.object(ust.shapelet, "_CPUS", workers),
                patch.object(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget),
                patch.object(ust.shapelet, "_TILE_ELEMS", tile),
                patch.object(ust.shapelet, "_SWEEP_ELEMS", cap),
            ):
                assert_matches_oracle(*case)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_extraction_memory_is_bounded_by_the_block_budget(self, workers, monkeypatch):
        # scoring one block of candidates at a time keeps no (candidates, n) matrix of a whole
        # length; the workers share the block budget and each holds its own tile scratch
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", 200_000)
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        rng = np.random.default_rng(0)
        d = UncertainDataset.from_arrays(
            rng.normal(0, 1, (200, 20)), rng.uniform(0, 0.5, (200, 20)), ["A"] * 100 + ["B"] * 100
        )
        tracemalloc.start()
        try:
            extract_shapelets(d, ExtractionConfig(min_len=3, max_len=3, k=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("max_len", [4, 20, 60])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_length_memory_is_bounded_by_the_block_budget(self, workers, max_len, monkeypatch):
        # a block's rows are swept in slices of at most _SWEEP_ELEMS cells, and each source block keeps
        # only its own picks, so what extraction holds stays within the staging budget, the workers'
        # tile scratch and a constant, however many lengths a block has
        budget, n, m = 1_000_000, 30, 60
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        rng = np.random.default_rng(0)
        d = UncertainDataset.from_arrays(rng.normal(0, 1, (n, m)), rng.uniform(0, 0.5, (n, m)), ["A", "B"] * (n // 2))
        tracemalloc.start()
        try:
            extract_shapelets(d, ExtractionConfig(min_len=3, max_len=max_len, k=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (budget + workers * ust.shapelet._TILE_ELEMS) + 4 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_extraction_memory_does_not_grow_with_the_candidates(self, workers, monkeypatch):
        # (n, m) = (6, 240) has 28,441 candidates per source; a table of every candidate's four values
        # would be 5.2 MiB and one over every (offset, source, length) cell 10.4 MiB.  Each block keeps
        # a table of its own sources' candidates and then only their picks, so the peak is bounded by
        # the staging budget, the workers' tile scratch (two planes of terms and accumulators) and a
        # constant.  (1000, 6) at its one length 6 fills each block with one length, whose sweeps stay within
        # _SWEEP_ELEMS all the same; at the default budget, since a 1 M one leaves 2 workers ~1 MiB of margin
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        for budget, n, m, cfg in (
            (1_000_000, 6, 240, ExtractionConfig(k=1)),
            (ust.shapelet._KERNEL_CHUNK_ELEMS, 1000, 6, ExtractionConfig(min_len=6, max_len=6, k=1)),
        ):
            monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
            rng = np.random.default_rng(0)
            d = UncertainDataset.from_arrays(rng.normal(0, 1, (n, m)), rng.uniform(0, 0.5, (n, m)), ["A", "B"] * (n // 2))
            tracemalloc.start()
            try:
                extract_shapelets(d, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * budget + 16 * workers * ust.shapelet._TILE_ELEMS + 4 * 2**20, (n, m)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweeps_take_fixed_row_slices_within_the_cap(self, workers, monkeypatch):
        # each scoring sweep reads a slice of one staging block's minima, no copy, of at most
        # max(1, _SWEEP_ELEMS // n) rows whatever lengths it spans, and a block's sweeps take its rows
        # once, in order, each but the last a full slice.  At (n, m) = (30, 50) and 2 workers that is
        # fewer sweeps than the 46 that runs of whole lengths took
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        n, m = 30, 50
        rows = max(1, ust.shapelet._SWEEP_ELEMS // n)
        rng = np.random.default_rng(4)
        d = UncertainDataset.from_arrays(rng.normal(0, 1, (n, m)), rng.uniform(0, 0.5, (n, m)), ["A", "B"] * (n // 2))
        kernel, split = ust.shapelet._grid_min_dissims, ust.shapelet._batch_best_splits
        blocks = []  # the scoring blocks, kept alive so that no later block reuses their memory
        swept = collections.defaultdict(list)  # per block, the rows of each of its sweeps

        def spy_kernel(*args):
            for block in kernel(*args):
                if not args[-1].any():  # a scoring pass, on zero uncertainties
                    blocks.append(block)
                yield block

        def spy_split(dist_best, *rest):
            (i,) = [i for i, block in enumerate(blocks) if np.shares_memory(dist_best, block[3])]
            min_b = blocks[i][3]
            at = dist_best.__array_interface__["data"][0] - min_b.__array_interface__["data"][0]
            first, rem = divmod(at, min_b.strides[0])
            assert rem == 0 and dist_best.strides == min_b.strides  # a view of whole rows
            swept[i].append(range(first, first + len(dist_best)))
            return split(dist_best, *rest)

        monkeypatch.setattr(ust.shapelet, "_grid_min_dissims", spy_kernel)
        monkeypatch.setattr(ust.shapelet, "_batch_best_splits", spy_split)
        extract_shapelets(d, ExtractionConfig())
        assert sorted(swept) == list(range(len(blocks)))
        for i, block in enumerate(blocks):
            assert swept[i] == [range(r, min(r + rows, len(block[3]))) for r in range(0, len(block[3]), rows)]
        if workers == 2:
            assert sum(map(len, swept.values())) < 46

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tied_qualities_merge_as_the_oracle(self, workers, monkeypatch):
        # integer-valued data ties many qualities exactly, so the merge of the sources' own picks orders
        # ties on margin, length, source and offset, and overlaps leave sources with fewer picks than k
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        d = random_dataset(np.random.default_rng(11), n=8, m=12, integer_grid=True)
        got = assert_matches_oracle(d, ExtractionConfig(min_len=2, k=12))
        assert len({sh.quality for sh in got}) < len(got)  # picks tied in quality

    def test_overflow_raises_without_a_warning(self):
        d = UncertainDataset.from_arrays([[1e200, 0.0, 1.0], [-1e200, 1.0, 0.0]], [[0.0] * 3] * 2, ["A", "B"])
        with pytest.raises(NumericOverflowError):
            extract_shapelets(d, ExtractionConfig(min_len=2))

    @pytest.mark.parametrize(
        "best, unc, labels",
        [
            ([[0.0, 1.0, 0.5], [1.0, 0.0, 0.25]], [[1e308] * 3] * 2, "AB"),
            # only sums against series 4 overflow; neither the selected shapelet (from a B series)
            # nor its threshold reads one, but the full path raises on them all the same
            (
                [[0.0, 0.1, 0.2, 0.1], [0.05, 0.15, 0.1, 0.0], [0.9, 1.0, 0.95, 0.8], [1.0, 0.85, 0.9, 0.95],
                 [5.0, 4.5, 4.75, 5.25]],
                [[0.0] * 4] * 4 + [[1e308] * 4],
                "AABBA",
            ),
            # the same at a scale where every |d| * (u + v) is finite but some u + v is not
            (
                [[x * 1e-150 for x in row] for row in [
                    [0.0, 0.1, 0.2, 0.1], [0.05, 0.15, 0.1, 0.0], [0.9, 1.0, 0.95, 0.8], [1.0, 0.85, 0.9, 0.95],
                    [5.0, 4.5, 4.75, 5.25]]],
                [[0.0] * 4] * 4 + [[1e308] * 4],
                "AABBA",
            ),
        ],
        ids=["every-series", "one-far-series", "tiny-distances"],
    )
    def test_overflow_of_the_uncertainty_alone_raises(self, best, unc, labels):
        # the best estimates never overflow, but sums of uncertainty terms do
        d = UncertainDataset.from_arrays(best, unc, list(labels))
        with pytest.raises(NumericOverflowError):
            extract_shapelets(d, ExtractionConfig(min_len=2, k=1))

    def test_scoring_sums_best_estimates_only(self, monkeypatch):
        # real-valued uncertain data has no exact distance ties: every scoring tile runs the certain path.
        # The train transform that holds the thresholds, like the transform of any split, runs no kernel
        # tile and folds each cell's uncertainty at its one minimizing window: no chunk folds every window
        d = random_dataset(np.random.default_rng(8), n=8, m=12)
        test = random_dataset(np.random.default_rng(9), n=8, m=12)
        fill, paths = ust.shapelet._fill_tile, []
        monkeypatch.setattr(ust.shapelet, "_fill_tile", lambda *args: paths.append(args[-1]) or fill(*args))
        spy, folds = fold_spy()
        monkeypatch.setattr(ust.shapelet, "_chunk_sums", spy)
        got = assert_matches_oracle(d, ExtractionConfig(min_len=3, max_len=8, k=6))
        assert set(paths) == {"certain"} and folds == []
        paths.clear()
        assert_transform_matches_oracle(test, got)
        assert paths == [] and folds == []

    @staticmethod
    def scoring_passes(d, monkeypatch):
        """Spy on the kernel: per scoring call, whether it ran the full path, and the sources it scored.

        Scoring calls take every training series; the threshold calls take only the series they read.
        """
        kernel, passes = ust.shapelet._grid_min_dissims, []

        def spy(src_b, src_u, stride, ends, min_len, series_b, series_u):
            if series_b is d.best:
                passes.append((series_u is d.uncertainty, [row.tobytes() for row in src_b]))
            return kernel(src_b, src_u, stride, ends, min_len, series_b, series_u)

        monkeypatch.setattr(ust.shapelet, "_grid_min_dissims", spy)
        return passes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_tie_restarts_the_scoring_once_on_the_full_path(self, workers, monkeypatch):
        # on a {0, 1, 2} grid a sweep meets an exact best tie: the best-only scoring stops, and the full
        # path scores every source exactly once, its uncertainty minima ordering the ties
        d = random_dataset(np.random.default_rng(6), n=8, m=12, integer_grid=True)
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        passes = self.scoring_passes(d, monkeypatch)
        assert_matches_oracle(d, ExtractionConfig(min_len=2, k=10))
        every_source = sorted(row.tobytes() for row in d.best)
        assert [full for full, _ in passes] == [False] * workers + [True] * workers
        assert sorted(row for full, rows in passes if full for row in rows) == every_source

    @pytest.mark.parametrize("workers", [1, 2])
    def test_certain_ties_are_scored_once(self, workers, monkeypatch):
        # with zero uncertainties the first scoring already runs the full path (the kernel's certain
        # path), whose +0.0 uncertainty minima order every tie, so nothing is scored twice
        d = random_dataset(np.random.default_rng(6), n=8, m=12, integer_grid=True)
        d = UncertainDataset.from_arrays(d.best, np.zeros_like(d.uncertainty), d.labels)
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        passes = self.scoring_passes(d, monkeypatch)
        assert_matches_oracle(d, ExtractionConfig(min_len=2, k=10))
        assert [full for full, _ in passes] == [True] * workers
        assert sorted(row for _, rows in passes for row in rows) == sorted(row.tobytes() for row in d.best)

    @pytest.mark.parametrize(
        "workers, budget, paths_run",
        [(1, 1, {"certain", "full"}), (1, None, {"certain"}), (2, None, {"certain"})],
        ids=["tie-first", "overflow-first", "tie-in-the-first-slice"],
    )
    def test_a_tie_and_an_overflow_raise_the_overflow(self, workers, budget, paths_run, monkeypatch):
        # every sweep of source 0 ties, and source 2's window [1, 5) overflows against the other series.
        # One-stem blocks sweep offset 0 before the kernel reaches offset 1, so the tie comes first and
        # the full path raises; one block meets the overflow first; at 2 workers the first slice ties
        # while the second overflows, which raises before any rescoring.  Extraction raises
        # NumericOverflowError in every case
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        if budget is not None:
            monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
        fill, paths = ust.shapelet._fill_tile, set()
        monkeypatch.setattr(ust.shapelet, "_fill_tile", lambda *args: paths.add(args[-1]) or fill(*args))
        d = UncertainDataset.from_arrays(
            [[0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0, 1e200]],
            [[0.5, 0.0, 0.5, 0.0, 0.5]] * 3,
            ["A", "B", "A"],
        )
        with pytest.raises(NumericOverflowError):
            extract_shapelets(d, ExtractionConfig(min_len=2, max_len=4))
        assert paths == paths_run

    def test_quality_bounds(self):
        rng = np.random.default_rng(21)
        d = random_dataset(rng, n=8, m=10)
        bound = math.log2(len(set(d.labels)))
        for sh in extract_shapelets(d, ExtractionConfig(min_len=3, max_len=8, k=20)):
            assert 0.0 <= sh.quality <= bound + 1e-12

    def test_certain_data_degenerates_to_classical_transform(self):
        # with zero uncertainty the scoring must equal a plain squared-Euclidean run
        rng = np.random.default_rng(17)
        rows = [
            (rng.normal(0, 1, 8).tolist(), "A" if i < 3 else "B", None) for i in range(6)
        ]
        d = dataset(rows)
        # the oracle reduces to plain ED when deltas are zero
        got = assert_matches_oracle(d, ExtractionConfig(min_len=3, max_len=5, k=4))
        assert all(sh.split_threshold.uncertainty == 0.0 for sh in got)

    @given(
        st.integers(0, 2**32 - 1), st.integers(4, 9), st.integers(4, 12), st.integers(2, 3),
        st.integers(1, 4), st.integers(1, 2), st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_st_and_ust_views_select_alike_without_ties(self, seed, n, m, n_classes, min_len, stride, k):
        # the uncertainties only order exact best ties: on data whose best-only scoring meets none, the
        # uncertain view and its zero-uncertainty copy (the st view) select the same shapelets
        rng = np.random.default_rng(seed)
        d = UncertainDataset.from_arrays(
            rng.normal(size=(n, m)), rng.uniform(0, 0.5, (n, m)), [str(i % n_classes) for i in range(n)]
        )
        certain = UncertainDataset.from_arrays(d.best, np.zeros((n, m)), d.labels)
        config = ExtractionConfig(min_len=min(min_len, m), k=k, candidate_stride=stride)
        splits, ties = ust.shapelet._batch_best_splits, []

        def spy(*args):
            out = splits(*args)
            if out is None:
                ties.append(args)
            return out

        with patch.object(ust.shapelet, "_batch_best_splits", spy):
            uncertain_view = extract_shapelets(d, config)
        assert uncertain_view.certain_alike == (not ties)  # the flag says which case this is
        assume(not ties)
        certain_view = extract_shapelets(certain, config)
        assert certain_view.certain_alike

        def key(sh):
            return sh.source_instance, sh.start_offset, sh.length, sh.quality, sh.split_threshold.best

        assert [key(sh) for sh in uncertain_view] == [key(sh) for sh in certain_view]
        assert np.array_equal(
            shapelet_transform(d, uncertain_view).best, shapelet_transform(certain, certain_view).best
        )


@st.composite
def selection_tables(draw):
    """An extraction table of few distinct qualities and margins, and k.

    As in extraction, a cell holds no candidate (quality ``-inf``) for every
    source of an (offset, length) column or for none.
    """
    n_off, n, lengths = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    stride, min_len = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    offsets = stride * np.arange(n_off)
    cells = n_off * n * lengths
    table = np.zeros((3, n_off, n, lengths))
    table[0].flat = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=cells, max_size=cells))
    table[1].flat = draw(st.lists(st.sampled_from([0.0, 0.25]), min_size=cells, max_size=cells))
    absent = np.reshape(draw(st.lists(st.booleans(), min_size=n_off * lengths, max_size=n_off * lengths)), (n_off, 1, lengths))
    absent[0, 0, 0] = False  # at least one candidate
    table[0] = np.where(absent, -np.inf, table[0])
    m = int(offsets[-1]) + min_len + lengths - 1
    return table, offsets, min_len, m, draw(st.integers(1, 12))


def full_order_greedy(table, offsets, min_len, m, k):
    """The greedy over every candidate in selection order: quality and margin descending, then length,
    source and offset ascending; a pick overlapping an earlier one of its source is skipped."""
    _, n_off, n, lengths = table.shape
    keys = sorted(
        (-table[0, o, s, c], -table[1, o, s, c], c + min_len, s, int(offsets[o]), (o * n + s) * lengths + c)
        for o in range(n_off) for s in range(n) for c in range(lengths) if table[0, o, s, c] > -np.inf
    )
    taken, picks = np.zeros((n, m), dtype=bool), []
    for _, _, l, s, o, flat in keys:
        if len(picks) < k and not taken[s, o : o + l].any():
            taken[s, o : o + l] = True
            picks.append(flat)
    return picks


class TestSelection:
    @given(selection_tables())
    @example(  # three candidates of quality 1.0 overlap on source 0 and give one pick
        (
            np.array([
                [[[1.0, 1.0]], [[1.0, 0.5]], [[0.5, -np.inf]]],
                [[[0.0, 0.25]], [[0.0, 0.0]], [[0.25, 0.0]]],
                np.zeros((3, 1, 2)),
            ]),
            np.arange(3), 1, 3, 3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_merged_own_picks_equal_the_full_order_greedy(self, case):
        # every source's own picks, merged in key order, give the greedy over all candidates
        table, offsets, min_len, m, k = case
        n, lengths = table.shape[2:]
        o, c = np.nonzero(table[0, :, 0] > -np.inf)
        order = np.lexsort((o, c))  # a source's candidates in (length, offset) order
        o, c = o[order], c[order]
        rows, cols = _own_picks(table[0, o, :, c].T, table[1, o, :, c].T, offsets[o], offsets[o] + c + min_len, k)
        assert np.bincount(rows, minlength=n).max() <= k
        keys = sorted(
            (-table[0, o[j], s, c[j]], -table[1, o[j], s, c[j]], c[j], s, o[j], (o[j] * n + s) * lengths + c[j])
            for s, j in zip(rows.tolist(), cols.tolist())
        )
        assert [key[-1] for key in keys[:k]] == full_order_greedy(table, offsets, min_len, m, k)


class TestTransform:
    def test_matrix_shape_and_direct_equality(self):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=4, k=1))
        mat = shapelet_transform(train, shapelets)
        assert mat.best.shape == (10, 1)
        values = shapelets[0].values
        for i in range(10):
            expected = oracles.min_dissim(
                values.best.tolist(),
                values.uncertainty.tolist(),
                train.best[i].tolist(),
                train.uncertainty[i].tolist(),
            )
            assert (mat.best[i, 0], mat.uncertainty[i, 0]) == expected

    def test_self_distance_zero_on_certain_source(self):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=4, k=1))
        mat = shapelet_transform(train, shapelets)
        src = shapelets[0].source_instance
        assert mat.best[src, 0] == 0.0
        assert mat.uncertainty[src, 0] == 0.0

    def test_matches_oracle_entrywise(self):
        rng = np.random.default_rng(23)
        d = random_dataset(rng, n=5, m=9)
        shapelets = extract_shapelets(d, ExtractionConfig(min_len=3, max_len=5, k=4))
        mat = shapelet_transform(d, shapelets)
        values = [(sh.values.best.tolist(), sh.values.uncertainty.tolist()) for sh in shapelets]
        expected = oracles.transform(d.best.tolist(), d.uncertainty.tolist(), values)
        for i in range(len(d)):
            for j in range(len(shapelets)):
                assert (mat.best[i, j], mat.uncertainty[i, j]) == expected[i][j]

    def test_returns_frozen_dataset(self):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=4, k=3))
        features = shapelet_transform(train, shapelets)
        assert isinstance(features, UncertainDataset)
        for a in (features.best, features.uncertainty):
            assert a.shape == (len(train), len(shapelets))
            assert not a.flags.writeable
        assert features.labels == train.labels

    def test_labels_carried(self):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=3, k=2))
        assert shapelet_transform(train, shapelets).labels == train.labels

    def test_shapelet_longer_than_series(self):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=3, k=1))
        short = dataset([([0.0, 1.0], "A", None), ([1.0, 0.0], "B", None)])
        with pytest.raises(DimensionMismatchError):
            shapelet_transform(short, shapelets)

    @given(transform_cases())
    @example(  # integer-valued: windows tie in best sum and differ in uncertainty, so the entry is recomputed
        (
            UncertainDataset.from_arrays([[0.0, 1.0, 0.0, 1.0, 0.0]], [[0.5, 0.0, 0.0, 0.5, 0.5]], ["A"]),
            [UncertainShapelet(UncertainVector([0.0, 1.0], [0.0, 0.0]), 0, 0, 0.0, UncertainValue(0.0))],
            ust.shapelet._ROW_CHUNK_ELEMS,
        )
    )
    @example(  # certain series: only the uncertain shapelet's five windows tie, the certain one has one window
        (
            UncertainDataset.from_arrays([[0.0] * 5], [[0.0] * 5], ["A"]),
            [
                UncertainShapelet(UncertainVector([0.0], [0.5]), 0, 0, 0.0, UncertainValue(0.0)),
                UncertainShapelet(UncertainVector([0.0] * 5, [0.0] * 5), 0, 0, 0.0, UncertainValue(0.0)),
            ],
            1,
        )
    )
    @example(  # one chunk folded at every window: row 0 ties against [0.5, 0.5] and [0.5] with unequal uncertainties
        (
            UncertainDataset.from_arrays(
                [[0.0, 1.0, 0.0, 1.0, 0.0], [0.3, 1.2, -0.7, 2.5, 0.1]],
                [[0.5, 0.0, 0.25, 0.5, 0.0], [0.0, 0.25, 0.5, 0.0, 0.5]],
                ["A", "A"],
            ),
            [
                UncertainShapelet(UncertainVector(b, u), 0, 0, 0.0, UncertainValue(0.0))
                for b, u in [([0.5, 0.5], [0.0, 0.5]), ([0.5, 0.2, 0.9], [0.25, 0.0, 0.5]), ([0.5], [0.25])]
            ],
            ust.shapelet._ROW_CHUNK_ELEMS,
        )
    )
    @example(  # constant series and shapelets: every window of every entry ties, so every chunk folds every window
        (
            UncertainDataset.from_arrays(
                [[2.0] * 6, [-1.0] * 6, [0.5] * 6],
                [[0.5, 0.0, 0.25, 0.5, 0.0, 0.25], [0.25] * 6, [0.0, 0.5, 0.0, 0.25, 0.25, 0.5]],
                ["A"] * 3,
            ),
            [
                UncertainShapelet(UncertainVector(b, u), 0, 0, 0.0, UncertainValue(0.0))
                for b, u in [([1.0] * 2, [0.25, 0.0]), ([0.0] * 4, [0.0, 0.5, 0.25, 0.0]), ([3.0], [0.5])]
            ],
            2 * 3 * 6 + 1,  # two rows per chunk, then one
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_property(self, case):
        # the transform folds each entry's uncertainty at its first minimizing window; a row chunk that holds an
        # entry with an exact best tie across windows, and only such a chunk, is folded at every window.  On
        # certain data every uncertainty is +0.0, and no chunk is folded
        d, shapelets, budget = case
        tied_rows = set()
        for sh in shapelets:
            cand, l = sh.values.best.tolist(), sh.length
            for row, x in zip(d.best.tolist(), d.best):
                sums = [oracles.dissim(cand, [0.0] * l, row[t : t + l], [0.0] * l)[0] for t in range(len(row) - l + 1)]
                if sums.count(min(sums)) > 1:
                    tied_rows.add(x.tobytes())
        certain = not (d.uncertainty.any() or any(sh.values.uncertainty.any() for sh in shapelets))
        fill = ust.shapelet._fill_tile
        for workers in (1, 2):
            calls, (spy, folds) = [], fold_spy()
            with (
                patch.object(ust.shapelet, "_CPUS", workers),
                patch.object(ust.shapelet, "_ROW_CHUNK_ELEMS", budget),
                patch.object(ust.shapelet, "_fill_tile", lambda *args: calls.append("tile") or fill(*args)),
                patch.object(ust.shapelet, "_chunk_sums", spy),
            ):
                assert_transform_matches_oracle(d, shapelets)
            assert calls == []
            if certain:
                assert folds == []
            else:  # every folded chunk holds a tied row, and every tied row lies in a folded chunk
                assert all(tied_rows.intersection(rows) for rows in folds)
                assert tied_rows <= {row for rows in folds for row in rows}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "unc, raises",
        [([0.6e308, 0.6e308, 0.0, 0.0], True), ([0.0, 0.0, 0.6e308, 0.6e308], False)],
        ids=["at-the-minimizing-window", "elsewhere"],
    )
    def test_uncertainty_overflow_raises_only_at_the_minimizing_window(self, unc, raises, workers, monkeypatch):
        # window 0 of [1, 1, 10, 10] is the unique minimum of [0, 0]: its uncertainty sum 2 * (0.6e308 + 0.6e308)
        # overflows; the sums of windows 1 and 2 overflow in the other case, which no feature reads
        # (the minimum is unique, so the fold at it gives each entry's uncertainty and no chunk folds every window)
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", 1)  # at two workers, one row each
        fill, calls, (spy, folds) = ust.shapelet._fill_tile, [], fold_spy()
        monkeypatch.setattr(ust.shapelet, "_fill_tile", lambda *args: calls.append("tile") or fill(*args))
        monkeypatch.setattr(ust.shapelet, "_chunk_sums", spy)
        d = UncertainDataset.from_arrays([[1.0, 1.0, 10.0, 10.0]] * 2, [unc] * 2, ["A", "B"])
        shapelet = UncertainShapelet(UncertainVector([0.0, 0.0], [0.0, 0.0]), 0, 0, 0.0, UncertainValue(0.0, 0.0))
        if raises:
            with pytest.raises(NumericOverflowError):
                shapelet_transform(d, [shapelet])
        else:
            assert_transform_matches_oracle(d, [shapelet])
            assert shapelet_transform(d, [shapelet]).uncertainty.tolist() == [[0.0], [0.0]]
        assert calls == [] and folds == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget", [1, None], ids=["one-row-chunks", "default-chunks"])
    def test_overflow_off_the_minimum_of_a_chunk_folded_at_every_window(self, budget, workers, monkeypatch):
        # [10] ties at windows 2 and 3 of [1, 1, 10, 10], so each chunk folds every window of every entry.  That
        # computes the uncertainty sums of [0, 0] at windows 1 and 2 too, which overflow; its unique minimum is
        # window 0, so no feature reads them and nothing raises
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        if budget is not None:
            monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", budget)
        spy, folds = fold_spy()
        monkeypatch.setattr(ust.shapelet, "_chunk_sums", spy)
        d = UncertainDataset.from_arrays([[1.0, 1.0, 10.0, 10.0]] * 2, [[0.0, 0.0, 0.6e308, 0.6e308]] * 2, ["A", "B"])
        shapelets = [
            UncertainShapelet(UncertainVector(b, [0.0] * len(b)), 0, 0, 0.0, UncertainValue(0.0, 0.0))
            for b in ([0.0, 0.0], [10.0])
        ]
        assert_transform_matches_oracle(d, shapelets)
        assert shapelet_transform(d, shapelets).uncertainty.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert sorted(row for rows in folds for row in rows) == [x.tobytes() for x in d.best] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_is_bounded_by_the_tile_budget(self, workers, monkeypatch):
        # tiles span a few hundred rows, so no term table covers every instance
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", 200_000)
        monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
        rng = np.random.default_rng(0)
        d = UncertainDataset.from_arrays(rng.normal(0, 1, (4000, 60)), rng.uniform(0, 0.5, (4000, 60)), ["A"] * 4000)
        shapelets = [
            UncertainShapelet(UncertainVector(d.best[j, :l], d.uncertainty[j, :l]), j, 0, 0.0, UncertainValue(0.0, 0.0))
            for j, l in enumerate([12, 12, 12, 20, 20, 20, 5, 5])
        ]
        tracemalloc.start()
        try:
            shapelet_transform(d, shapelets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("tile, rows", [(None, [10]), (1, [5, 5])], ids=["default-tile", "one-cell-tile"])
    def test_no_worker_gets_less_than_a_tile(self, tile, rows, monkeypatch):
        # ten rows against two short shapelets are far less than one default row chunk, so one worker
        # takes all rows; with one-cell chunks each of the two workers takes half of them
        monkeypatch.setattr(ust.shapelet, "_CPUS", 2)
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=4, k=2))
        expected = shapelet_transform(train, shapelets)
        if tile is not None:
            monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", tile)
        in_slices, seen = ust.shapelet._in_slices, []

        def spy(count, work, chunks=None):
            return in_slices(count, lambda part: seen.append(part.stop - part.start) or work(part), chunks)

        monkeypatch.setattr(ust.shapelet, "_in_slices", spy)
        features = shapelet_transform(train, shapelets)
        assert sorted(seen) == rows
        assert (features.best.tobytes(), features.uncertainty.tobytes()) == (
            expected.best.tobytes(), expected.uncertainty.tobytes()
        )

    def test_overflow_raises_without_a_warning(self):
        shapelet = UncertainShapelet(UncertainVector([1e200, 0.0], [0.0, 0.0]), 0, 0, 0.0, UncertainValue(0.0, 0.0))
        with pytest.raises(NumericOverflowError):
            shapelet_transform(planted_motif_dataset(), [shapelet])

    def test_rejects_empty_shapelet_list(self):
        with pytest.raises(ValueError):
            shapelet_transform(planted_motif_dataset(), [])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=5, k=4))
        path = tmp_path / "shapelets.json"
        save_shapelets(shapelets, path)
        loaded = load_shapelets(path)
        assert loaded == shapelets

    def test_schema(self, tmp_path):
        train = planted_motif_dataset()
        shapelets = extract_shapelets(train, ExtractionConfig(min_len=3, max_len=5, k=4))
        path = tmp_path / "shapelets.json"
        save_shapelets(shapelets, path)
        docs = json.loads(path.read_text())
        assert isinstance(docs, list)
        qualities = [doc["quality"] for doc in docs]
        assert qualities == sorted(qualities, reverse=True)
        for doc in docs:
            assert set(doc) == {
                "source_instance",
                "start_offset",
                "length",
                "quality",
                "threshold",
                "values",
            }
            assert set(doc["threshold"]) == {"best", "uncertainty"}
            assert len(doc["values"]) == doc["length"]

    def test_length_consistency_checked(self, tmp_path):
        doc = [
            {
                "source_instance": 0,
                "start_offset": 0,
                "length": 3,
                "quality": 1.0,
                "threshold": {"best": 0.0, "uncertainty": 0.0},
                "values": [{"best": 1.0, "uncertainty": 0.0}],
            }
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="length"):
            load_shapelets(path)
