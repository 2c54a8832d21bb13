import json
import math

import numpy as np
import pytest

import oracles
import ust.shapelet
from ust import (
    ConfigurationError,
    DimensionMismatchError,
    ExtractionConfig,
    UncertainDataset,
    UncertainSeries,
    UncertainVector,
    entropy_from_counts,
    extract_shapelets,
    load_shapelets,
    save_shapelets,
    shapelet_transform,
)
from ust.shapelet import _batch_best_splits, _sliding_min_dissim


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


def window_min(cand_b, cand_u, ser_b, ser_u):
    """One (candidate, series) entry of the batch distance kernel."""
    db, du = _sliding_min_dissim(
        np.array([cand_b], dtype=float),
        np.array([cand_u], dtype=float),
        np.array([ser_b], dtype=float),
        np.array([ser_u], dtype=float),
    )
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
    """The window minimum of ``_sliding_min_dissim`` against ``oracles.min_dissim``."""

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
        db, du = _sliding_min_dissim(sb, su, tb, tu)
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
        expected = _sliding_min_dissim(sb, su, tb, tu)
        monkeypatch.setattr(ust.shapelet, "_KERNEL_CHUNK_ELEMS", budget)
        got = _sliding_min_dissim(sb, su, tb, tu)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()

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
        cfg = ExtractionConfig(min_len=3, max_len=7, k=5)
        got = extract_shapelets(d, cfg)
        expected = run_oracle(d, cfg)
        assert len(got) == len(expected)
        for sh, (l, s, o, gain, tb, tu) in zip(got, expected):
            assert (sh.length, sh.source_instance, sh.start_offset) == (l, s, o)
            assert sh.quality == gain
            assert (sh.split_threshold.best, sh.split_threshold.uncertainty) == (tb, tu)

    def test_stride_matches_oracle(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, n=6, m=12)
        cfg = ExtractionConfig(min_len=3, max_len=6, k=4, candidate_stride=2)
        got = extract_shapelets(d, cfg)
        expected = run_oracle(d, cfg)
        for sh, (l, s, o, gain, tb, tu) in zip(got, expected):
            assert (sh.length, sh.source_instance, sh.start_offset) == (l, s, o)
            assert sh.quality == gain
            assert o % 2 == 0

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
        cfg = ExtractionConfig(min_len=3, max_len=5, k=4)
        got = extract_shapelets(d, cfg)
        expected = run_oracle(d, cfg)  # oracle reduces to plain ED when deltas are zero
        for sh, (l, s, o, gain, tb, tu) in zip(got, expected):
            assert (sh.length, sh.source_instance, sh.start_offset) == (l, s, o)
            assert sh.quality == gain
            assert tu == 0.0 and sh.split_threshold.uncertainty == 0.0


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
