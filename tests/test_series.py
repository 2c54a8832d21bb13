import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ust import (
    DatasetFormatError,
    NoiseSpec,
    UncertainDataset,
    UncertainSeries,
    UncertainVector,
    dataset_std,
    derive_split_seeds,
    inject_noise,
    load_dataset,
    save_dataset,
)
from ust.series import _instance_noise


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def make_dataset(rows, labels, uncs=None):
    out = []
    for i, row in enumerate(rows):
        unc = uncs[i] if uncs is not None else [0.0] * len(row)
        out.append(UncertainSeries(UncertainVector(row, unc), labels[i]))
    return UncertainDataset(out)


class TestLoad:
    def test_values_only(self, tmp_path):
        p = write(tmp_path / "v.tsv", "1\t0.0\t1.0\n2\t1.0\t0.0\n")
        d = load_dataset(p)
        assert len(d) == 2
        assert d.series_length == 2
        assert d.class_set == {"1", "2"}
        assert all(not inst.values.uncertainty.any() for inst in d)

    def test_with_uncertainty_file(self, tmp_path):
        v = write(tmp_path / "v.tsv", "1\t0.0\t1.0\n2\t1.0\t0.0\n")
        u = write(tmp_path / "u.tsv", "0.1\t0.2\n0.0\t0.3\n")
        d = load_dataset(v, u)
        assert d[0].values.best.tolist() == [0.0, 1.0]
        assert d[0].values.uncertainty.tolist() == [0.1, 0.2]
        assert d[1].values.uncertainty.tolist() == [0.0, 0.3]

    def test_shape_mismatch_between_files(self, tmp_path):
        v = write(tmp_path / "v.tsv", "1\t0.0\t1.0\t2.0\n")
        u = write(tmp_path / "u.tsv", "0.1\t0.2\n")
        with pytest.raises(DatasetFormatError, match="shape mismatch"):
            load_dataset(v, u)

    def test_row_count_mismatch(self, tmp_path):
        v = write(tmp_path / "v.tsv", "1\t0.0\n2\t1.0\n")
        u = write(tmp_path / "u.tsv", "0.1\n")
        with pytest.raises(DatasetFormatError, match="shape mismatch"):
            load_dataset(v, u)

    def test_malformed_value_names_position(self, tmp_path):
        p = write(tmp_path / "v.tsv", "1\t0.0\n2\tbogus\n")
        with pytest.raises(DatasetFormatError, match=r"v\.tsv:2: column 2"):
            load_dataset(p)

    def test_ragged_rows(self, tmp_path):
        p = write(tmp_path / "v.tsv", "1\t0.0\t1.0\n2\t1.0\n")
        with pytest.raises(DatasetFormatError, match="ragged"):
            load_dataset(p)

    def test_missing_label(self, tmp_path):
        p = write(tmp_path / "v.tsv", "\t1.0\t2.0\n")
        with pytest.raises(DatasetFormatError, match="missing label"):
            load_dataset(p)

    def test_label_only_row(self, tmp_path):
        p = write(tmp_path / "v.tsv", "1\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "v.tsv", "")
        with pytest.raises(DatasetFormatError, match="no instances"):
            load_dataset(p)

    def test_non_finite_value(self, tmp_path):
        p = write(tmp_path / "v.tsv", "1\tinf\n")
        with pytest.raises(DatasetFormatError, match="finite"):
            load_dataset(p)

    def test_negative_uncertainty(self, tmp_path):
        v = write(tmp_path / "v.tsv", "1\t0.0\n")
        u = write(tmp_path / "u.tsv", "-0.5\n")
        with pytest.raises(DatasetFormatError, match=">= 0"):
            load_dataset(v, u)


class TestSave:
    def test_round_trip(self, tmp_path):
        d = make_dataset(
            [[0.1, -2.5e-17, 3.0], [1e300, 2.0, -0.0]],
            ["a", "b"],
            [[0.25, 0.0, 1e-8], [0.5, 0.125, 0.0]],
        )
        save_dataset(d, tmp_path / "v.tsv", tmp_path / "u.tsv")
        assert load_dataset(tmp_path / "v.tsv", tmp_path / "u.tsv") == d

    def test_certain_dataset_writes_zero_uncertainties(self, tmp_path):
        d = make_dataset([[1.0, 2.0]], ["x"])
        save_dataset(d, tmp_path / "v.tsv", tmp_path / "u.tsv")
        assert (tmp_path / "u.tsv").read_text() == "0\t0\n"

    def test_unwritable_path_names_target(self, tmp_path):
        d = make_dataset([[1.0]], ["x"])
        missing = tmp_path / "no" / "such" / "dir"
        with pytest.raises(OSError):
            save_dataset(d, missing / "v.tsv", missing / "u.tsv")

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcXYZ012", min_size=1, max_size=4),
                st.lists(
                    st.tuples(
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(min_value=0, allow_nan=False, allow_infinity=False),
                    ),
                    min_size=3,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, raw):
        d = make_dataset(
            [[b for b, _ in row] for _, row in raw],
            [lab for lab, _ in raw],
            [[u for _, u in row] for _, row in raw],
        )
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(d, tmp / "v.tsv", tmp / "u.tsv")
            assert load_dataset(tmp / "v.tsv", tmp / "u.tsv") == d


class TestDatasetInvariants:
    def test_rejects_unlabeled_instance(self):
        labeled = UncertainSeries(UncertainVector([1.0], [0.0]), "a")
        bare = UncertainSeries(UncertainVector([2.0], [0.0]))
        assert bare.label is None
        with pytest.raises(ValueError, match="label"):
            UncertainDataset([labeled, bare])

    def test_rejects_mixed_lengths(self):
        a = UncertainSeries(UncertainVector([1.0], [0.0]), "a")
        b = UncertainSeries(UncertainVector([1.0, 2.0], [0.0, 0.0]), "b")
        with pytest.raises(ValueError, match="equal-length"):
            UncertainDataset([a, b])


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dataset_rows(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    best = draw(arrays(np.float64, (n, m), elements=finite))
    unc = draw(arrays(np.float64, (n, m), elements=finite))
    labels = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=n, max_size=n))
    return best, unc, labels


class TestDatasetArrays:
    @given(dataset_rows())
    @settings(max_examples=50)
    def test_list_constructor_equals_from_arrays(self, rows):
        best, unc, labels = rows
        d = UncertainDataset.from_arrays(best, unc, labels)
        assert d == make_dataset(best.tolist(), labels, unc.tolist())
        assert d.labels == labels
        for i in range(len(labels)):
            assert d[i].label == labels[i]
            assert d[i].values == UncertainVector(best[i], unc[i])

    @pytest.mark.parametrize(
        "best, unc, labels, match",
        [
            (np.zeros((2, 3)), np.zeros((2, 2)), ["a", "b"], "must be equal"),
            (np.zeros(3), np.zeros(3), ["a"], "must be equal"),
            (np.zeros((2, 3)), np.zeros((2, 3)), ["a"], "1 labels for 2 instances"),
            (np.zeros((2, 3)), np.zeros((2, 3)), ["a", None], "instance 1 has no label"),
            (np.array([[0.0, np.inf]]), np.zeros((1, 2)), ["a"], "finite"),
            (np.zeros((1, 2)), np.array([[np.nan, 0.0]]), ["a"], "finite"),
            (np.zeros((0, 3)), np.zeros((0, 3)), [], "at least one"),
            (np.zeros((2, 0)), np.zeros((2, 0)), ["a", "b"], "at least one"),
        ],
        ids=["shape", "one-dimensional", "label-count", "none-label", "inf", "nan", "no-rows", "no-columns"],
    )
    def test_from_arrays_rejects(self, best, unc, labels, match):
        with pytest.raises(ValueError, match=match):
            UncertainDataset.from_arrays(best, unc, labels)

    def test_from_arrays_stores_absolute_uncertainty(self):
        d = UncertainDataset.from_arrays([[1.0, 2.0]], [[-0.5, 0.25]], ["a"])
        assert d.uncertainty.tolist() == [[0.5, 0.25]]

    def test_arrays_are_frozen_contiguous_copies(self):
        best = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        unc = np.zeros((2, 2))
        labels = ["a", "b"]
        d = UncertainDataset.from_arrays(best, unc, labels)
        for arr in (d.best, d.uncertainty):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 9.0
        best[0, 0] = 9.0
        unc[0, 0] = 9.0
        labels[0] = "z"
        d.labels.append("c")
        d.labels[0] = "y"
        assert d.best.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not d.uncertainty.any()
        assert d.labels == ["a", "b"]


class TestDatasetStd:
    def test_constant_dataset(self):
        assert dataset_std(make_dataset([[3.0, 3.0], [3.0, 3.0]], ["a", "b"])) == 0.0

    def test_two_point_pool(self):
        assert dataset_std(make_dataset([[0.0, 2.0]], ["a"])) == 1.0

    def test_single_instance(self):
        d = make_dataset([[1.0, 3.0, 5.0]], ["a"])
        assert dataset_std(d) == pytest.approx(1.6329931618554521, rel=1e-12)


class TestInjectNoise:
    def test_degenerate_sigma_warns_and_returns_input(self):
        d = make_dataset([[1.0, 1.0], [1.0, 1.0]], ["a", "b"])
        with pytest.warns(RuntimeWarning, match="standard deviation is 0"):
            out = inject_noise(d, NoiseSpec(seed=3))
        assert out is d

    def test_rejects_uncertain_input(self):
        d = make_dataset([[1.0, 2.0]], ["a"], [[0.1, 0.0]])
        with pytest.raises(ValueError, match="certain dataset"):
            inject_noise(d, NoiseSpec(seed=0))

    def test_deterministic(self, tmp_path):
        d = make_dataset([[0.0, 1.0, 2.0], [5.0, 4.0, 3.0]], ["a", "b"])
        out1 = inject_noise(d, NoiseSpec(seed=11))
        out2 = inject_noise(d, NoiseSpec(seed=11))
        assert out1 == out2
        save_dataset(out1, tmp_path / "v1.tsv", tmp_path / "u1.tsv")
        save_dataset(out2, tmp_path / "v2.tsv", tmp_path / "u2.tsv")
        assert (tmp_path / "v1.tsv").read_bytes() == (tmp_path / "v2.tsv").read_bytes()
        assert (tmp_path / "u1.tsv").read_bytes() == (tmp_path / "u2.tsv").read_bytes()

    def test_different_seeds_differ(self):
        d = make_dataset([[0.0, 1.0, 2.0]], ["a"])
        assert inject_noise(d, NoiseSpec(seed=1)) != inject_noise(d, NoiseSpec(seed=2))

    def test_preserves_shape_and_labels(self):
        d = make_dataset([[0.0, 1.0], [2.0, 3.0]], ["a", "b"])
        out = inject_noise(d, NoiseSpec(seed=7))
        assert len(out) == len(d)
        assert out.series_length == d.series_length
        assert out.labels == d.labels

    def test_uncertainty_is_absolute_shift(self):
        d = make_dataset([list(np.linspace(0, 9, 10)), list(np.linspace(9, 0, 10))], ["a", "b"])
        sigma = dataset_std(d)
        out = inject_noise(d, NoiseSpec(seed=5))
        for i, (before, after) in enumerate(zip(d, out)):
            expected = before.values.best + sigma * _instance_noise(5, i, 10)
            assert after.values.best.tobytes() == expected.tobytes()
            shift = np.abs(after.values.best - before.values.best)
            assert (after.values.uncertainty == shift).all()

    def test_noise_statistics(self):
        sigma = 2.5
        n, m = 100, 200
        d = make_dataset([[0.0] * m for _ in range(n)], ["a"] * n)
        out = inject_noise(d, NoiseSpec(seed=123, fixed_scale=sigma))
        noise = np.concatenate([inst.values.best for inst in out])
        assert noise.size >= 10_000
        assert abs(noise.mean()) <= 0.05 * sigma
        assert abs(noise.std() - sigma) <= 0.05 * sigma

    def test_fixed_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, fixed_scale=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, fixed_scale=-1.0)


class TestSplitSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_split_seeds(0, "SomeDataset")
        assert a == derive_split_seeds(0, "SomeDataset")
        assert a[0] != a[1]
        assert a != derive_split_seeds(0, "OtherDataset")
        assert a != derive_split_seeds(1, "SomeDataset")
