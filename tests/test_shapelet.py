import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ust.shapelet
from ust import (
    ConfigurationError,
    DimensionMismatchError,
    ExtractionConfig,
    NumericOverflowError,
    UncertainDataset,
    UncertainSeries,
    UncertainShapelet,
    UncertainValue,
    UncertainVector,
    entropy_from_counts,
    extract_shapelets,
    load_shapelets,
    save_shapelets,
    shapelet_transform,
)
from ust.shapelet import _batch_best_splits, _grid_min_dissims, shapelets_to_json


def series(best, label="A", unc=None):
    unc = [0.0] * len(best) if unc is None else unc
    return UncertainSeries(UncertainVector(best, unc), label)


def dataset(rows):
    return UncertainDataset([series(b, lab, u) for b, lab, u in rows])


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


def run_oracle(d, cfg):
    bests = [inst.values.best.tolist() for inst in d]
    uncs = [inst.values.uncertainty.tolist() for inst in d]
    max_len = cfg.max_len if cfg.max_len is not None else d.series_length
    k = cfg.k if cfg.k is not None else min(10 * len(d.class_set), 200)
    return oracles.extract(
        bests, uncs, d.labels, cfg.min_len, max_len, k, cfg.candidate_stride
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
    return np.concatenate([b[0] for *_, b, _ in blocks]), np.concatenate([u[0] for *_, u in blocks])


@st.composite
def prefix_kernel_cases(draw):
    """Sources, a stride-spaced offset grid with non-increasing ends, series and both budgets."""
    if draw(st.booleans()):
        el, unc_el = st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.sampled_from([0.0, 0.5])
    else:
        el, unc_el = st.floats(-10, 10), st.floats(0, 1)
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


def row_split(pairs, labels):
    """One row of the batch split sweep: (gain, margin, (thr_b, thr_u), n_near)."""
    classes = sorted(set(labels))
    label_idx = np.array([classes.index(lab) for lab in labels])
    totals = np.bincount(label_idx, minlength=len(classes))
    h = entropy_from_counts(totals.tolist(), len(labels))
    g, mg, tb, tu, n1 = _batch_best_splits(
        np.array([[b for b, _ in pairs]]), np.array([[u for _, u in pairs]]), label_idx, totals, h
    )
    return g[0], mg[0], (tb[0], tu[0]), n1[0]


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
        gain, _, thr, n1 = row_split([(1, 0), (2, 0), (3, 0), (4, 0)], list("AABB"))
        assert gain == 1.0
        assert thr == (2.0, 0.0)
        assert n1 == 2

    def test_threshold_comparison_uses_uncertain_order(self):
        # 2 ± 0.1 sorts below 2 ± 0.3, so the cut between them separates A from B
        gain, _, thr, n1 = row_split([(2, 0.3), (2, 0.1)], list("AB"))
        assert thr == (2.0, 0.1)
        assert n1 == 1
        assert gain == 1.0


class TestBestSplit:
    """Best cut per row of ``_batch_best_splits`` against ``oracles.split_quality``."""

    def test_two_singleton_classes(self):
        gain, margin, thr, _ = row_split([(1, 0), (5, 0)], list("AB"))
        assert gain == 1.0
        assert thr == (1.0, 0.0)
        assert margin == 4.0

    def test_all_equal_distances(self):
        gain, margin, thr, n1 = row_split([(2, 0.5)] * 4, list("AABB"))
        assert gain == 0.0
        assert margin == 0.0
        assert n1 == 4

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
            assert row_split(pairs, labels) == oracles.split_quality(pairs, labels, sorted(set(labels)))

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
    @settings(max_examples=80, deadline=None)
    def test_prefix_min_matches_oracle_property(self, case):
        (src_b, src_u, ser_b, ser_u), stride, ends, min_len, budget, tile = case
        seen = {}
        with patch.object(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget), patch.object(ust.shapelet, "_TILE_ELEMS", tile):
            for l, offsets, sources, min_b, min_u in _grid_min_dissims(
                src_b, src_u, stride, ends, min_len, ser_b, ser_u
            ):
                offs, srcs = range(len(ends))[offsets], range(len(src_b))[sources]
                assert min_b.shape == min_u.shape == (len(offs), len(srcs), len(ser_b))
                for i, k in enumerate(offs):
                    for j, s in enumerate(srcs):
                        assert (k, s, l) not in seen
                        seen[k, s, l] = min_b[i, j].tolist(), min_u[i, j].tolist()
        assert set(seen) == {
            (k, s, l) for k in range(len(ends)) for s in range(len(src_b)) for l in range(min_len, ends[k] + 1)
        }
        for (k, s, l), (b, u) in seen.items():
            window = slice(stride * k, stride * k + l)
            cand = src_b[s, window].tolist(), src_u[s, window].tolist()
            for r in range(len(ser_b)):
                assert (b[r], u[r]) == oracles.min_dissim(*cand, ser_b[r].tolist(), ser_u[r].tolist())

    def test_blocking_keeps_extraction_and_transform_bytes(self, monkeypatch):
        d = random_dataset(np.random.default_rng(4), n=7, m=11, integer_grid=True)
        cfg = ExtractionConfig(min_len=2, k=12, candidate_stride=2)
        outputs = []
        for budget in (1, 37, ust.shapelet._KERNEL_CHUNK_ELEMS):
            for tile in (1, 300, ust.shapelet._TILE_ELEMS):
                monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
                monkeypatch.setattr(ust.shapelet, "_TILE_ELEMS", tile)
                shapelets = extract_shapelets(d, cfg)
                features = shapelet_transform(d, shapelets)
                outputs.append((shapelets_to_json(shapelets), features.best.tobytes(), features.uncertainty.tobytes()))
        assert all(out == outputs[0] for out in outputs)

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
        h = entropy_from_counts(totals.tolist(), n)
        g, mg, tb, tu, n1 = _batch_best_splits(dist_b, dist_u, label_idx, totals, h)
        for row in range(dist_b.shape[0]):
            pairs = list(zip(dist_b[row].tolist(), dist_u[row].tolist()))
            gain, margin, thr, near = oracles.split_quality(pairs, labels, ["A", "B"])
            assert (g[row], mg[row], (tb[row], tu[row]), n1[row]) == (gain, margin, thr, near)


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

    @given(extraction_cases())
    @example(  # source 1 keeps the touching windows [0, 2) and [2, 5); an overlapping one is pruned
        (
            UncertainDataset.from_arrays(
                [[0.5, 0.5, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0]],
                [[0.5, 0.0, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0, 0.0]],
                ["A", "B"],
            ),
            ExtractionConfig(min_len=2, max_len=3, k=3),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_property(self, case):
        assert_matches_oracle(*case)

    def test_extraction_memory_is_bounded_by_the_block_budget(self, monkeypatch):
        # scoring one block of candidates at a time keeps no (candidates, n) matrix of a whole length
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", 200_000)
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

    def test_overflow_raises_without_a_warning(self):
        d = UncertainDataset.from_arrays([[1e200, 0.0, 1.0], [-1e200, 1.0, 0.0]], [[0.0] * 3] * 2, ["A", "B"])
        with pytest.raises(NumericOverflowError):
            extract_shapelets(d, ExtractionConfig(min_len=2))

    def test_quality_bounds(self):
        rng = np.random.default_rng(21)
        d = random_dataset(rng, n=8, m=10)
        bound = math.log2(len(d.class_set))
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
        bests = [inst.values.best.tolist() for inst in d]
        uncs = [inst.values.uncertainty.tolist() for inst in d]
        values = [(sh.values.best.tolist(), sh.values.uncertainty.tolist()) for sh in shapelets]
        expected = oracles.transform(bests, uncs, values)
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

    def test_memory_is_bounded_by_the_tile_budget(self, monkeypatch):
        # tiles span a few hundred rows, so no term table covers every instance
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", 200_000)
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
