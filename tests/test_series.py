import csv
import io
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles

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
    read_feature_csv,
    save_dataset,
    write_feature_csv,
)
from ust import series
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


def certain(rows, labels):
    """A dataset of the given best-estimate rows with every uncertainty zero."""
    return UncertainDataset.from_arrays(rows, np.zeros(np.shape(rows)), labels)


class TestLoad:
    def test_values_only(self, tmp_path):
        p = write(tmp_path / "v.tsv", "1\t0.0\t1.0\n2\t1.0\t0.0\n")
        d = load_dataset(p)
        assert len(d) == 2
        assert d.series_length == 2
        assert set(d.labels) == {"1", "2"}
        assert not d.uncertainty.any()

    def test_with_uncertainty_file(self, tmp_path):
        v = write(tmp_path / "v.tsv", "1\t0.0\t1.0\n2\t1.0\t0.0\n")
        u = write(tmp_path / "u.tsv", "0.1\t0.2\n0.0\t0.3\n")
        d = load_dataset(v, u)
        assert d.best[0].tolist() == [0.0, 1.0]
        assert d.uncertainty[0].tolist() == [0.1, 0.2]
        assert d.uncertainty[1].tolist() == [0.0, 0.3]

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

    def test_memory_stays_bounded(self, tmp_path):
        # a 3000 x 60 pair is 3.6 MB of text per file and 1.4 MB per matrix; a reader that holds a
        # Python float or a copy of the text per number peaks near 35 MB
        rng = np.random.default_rng(0)
        d = UncertainDataset.from_arrays(
            rng.normal(size=(3000, 60)), rng.exponential(size=(3000, 60)), [str(i % 3) for i in range(3000)]
        )
        save_dataset(d, tmp_path / "v.tsv", tmp_path / "u.tsv")
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / "v.tsv", tmp_path / "u.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == d
        assert peak < 20e6


class TestSave:
    def test_round_trip(self, tmp_path):
        d = UncertainDataset.from_arrays(
            [[0.1, -2.5e-17, 3.0], [1e300, 2.0, -0.0]],
            [[0.25, 0.0, 1e-8], [0.5, 0.125, 0.0]],
            ["a", "b"],
        )
        save_dataset(d, tmp_path / "v.tsv", tmp_path / "u.tsv")
        assert load_dataset(tmp_path / "v.tsv", tmp_path / "u.tsv") == d

    def test_certain_dataset_writes_zero_uncertainties(self, tmp_path):
        d = certain([[1.0, 2.0]], ["x"])
        save_dataset(d, tmp_path / "v.tsv", tmp_path / "u.tsv")
        assert (tmp_path / "u.tsv").read_text() == "0\t0\n"

    def test_unwritable_path_names_target(self, tmp_path):
        d = certain([[1.0]], ["x"])
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
        d = UncertainDataset.from_arrays(
            [[b for b, _ in row] for _, row in raw],
            [[u for _, u in row] for _, row in raw],
            [lab for lab, _ in raw],
        )
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(d, tmp / "v.tsv", tmp / "u.tsv")
            assert load_dataset(tmp / "v.tsv", tmp / "u.tsv") == d


finite = st.floats(allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
# printable: no control characters (so no tab, CR or LF) and no lone surrogates
labels = st.text(st.characters(exclude_categories=("Cc", "Cs")), min_size=1, max_size=6)


@st.composite
def feature_datasets(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    return UncertainDataset.from_arrays(
        draw(arrays(np.float64, (n, k), elements=finite)),
        draw(arrays(np.float64, (n, k), elements=nonneg)),
        draw(st.lists(labels, min_size=n, max_size=n)),
    )


BAD_REAL_FILES = {  # table -> (files, with {} for the bad token; the position the error names)
    "values": ({"v.tsv": "a\t1\t2\nb\t3\t{}\n"}, "v.tsv:2: column 3: "),
    "uncertainty": (
        {"v.tsv": "a\t1\t2\nb\t3\t4\n", "u.tsv": "0\t0\n0\t{}\n"},
        "u.tsv:2: column 2: ",
    ),
    "features": ({"f.csv": "label,f1,f2\nA,1,0\nB,1,{}\n"}, "f.csv:3: column 3: "),
}
def load_table(table, directory):
    """Read the files of ``BAD_REAL_FILES[table]`` back from ``directory``."""
    if table == "features":
        return read_feature_csv(directory / "f.csv")
    has_unc = "u.tsv" in BAD_REAL_FILES[table][0]
    return load_dataset(directory / "v.tsv", directory / "u.tsv" if has_unc else None)


BAD_TOKENS = {
    "abc": "not a decimal real: 'abc'",
    "inf": "value must be finite, got 'inf'",
    "-0.5": "negative uncertainty -0.5, must be >= 0",
}


class TestFeatureCsvCodec:
    @given(feature_datasets())
    @example(
        UncertainDataset.from_arrays(
            [[-0.0, 5e-324, 1.7e308], [-1.7e308, -5e-324, 0.1]],
            [[0.0, 5e-324, 1.7e308], [1e-300, 2.5, 0.0]],
            ["a,b", ' "q" x '],
        )
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, d):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_feature_csv(d, first)
            loaded = read_feature_csv(first)
            assert loaded == d
            assert loaded.best.tobytes() == d.best.tobytes()  # keeps -0.0 apart from 0.0
            assert loaded.uncertainty.tobytes() == d.uncertainty.tobytes()
            write_feature_csv(loaded, second)
            assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "table, token",
        [
            (table, token)
            for table in BAD_REAL_FILES
            for token in BAD_TOKENS
            if (table, token) != ("values", "-0.5")  # best estimates may be negative
        ],
    )
    def test_bad_real_names_file_line_column(self, table, token, tmp_path):
        files, position = BAD_REAL_FILES[table]
        for name, text in files.items():
            write(tmp_path / name, text.format(token))
        with pytest.raises(DatasetFormatError) as info:
            load_table(table, tmp_path)
        assert str(info.value) == f"{tmp_path}{os.sep}{position}{BAD_TOKENS[token]}"

    @pytest.mark.parametrize("table", BAD_REAL_FILES)
    def test_byte_order_mark_is_skipped(self, table, tmp_path):
        files, position = BAD_REAL_FILES[table]
        marked = position.partition(":")[0]  # the file that holds this table
        loaded = []
        for bom in ("", "\ufeff"):
            for name, text in files.items():
                write(tmp_path / name, (bom if name == marked else "") + text.format("0.5"))
            loaded.append(load_table(table, tmp_path))
        assert loaded[0] == loaded[1]

    def test_unwritable_label_names_file(self, tmp_path):
        path = write(tmp_path / "f.csv", "label,f1,f2\nA,1,0\n,1,0\n")
        with pytest.raises(DatasetFormatError, match=r"f\.csv: instance 1 has no label"):
            read_feature_csv(path)

    def test_csv_syntax_error_names_line(self, tmp_path):
        path = write(tmp_path / "f.csv", "label,f1,f2\nA,1,0\n" + "B" * 200_000 + ",1,0\n")
        with pytest.raises(DatasetFormatError, match=r"f\.csv:3: field larger than field limit"):
            read_feature_csv(path)

    def test_form_feed_in_tsv_label_loads(self, tmp_path):
        d = load_dataset(write(tmp_path / "v.tsv", "a\x0cb\t1\n"))
        assert d.labels == ["a\x0cb"]


# tokens Python's float accepts: 17-digit and shortest reals, integers, -0, digit
# separators, non-ASCII digits and surrounding whitespace
ACCEPTED_TOKENS = st.one_of(
    finite.map(lambda x: format(x, ".17g")),
    finite.map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0", "1_0", "١", "１", " 1", "1 ", "\xa01", "+.5e-3", "5e-324", "1\x0b", "1\x0c"]),
)
# tokens it refuses, or that parse to a value the tables refuse; NumPy's reader strips
# "\x1c".."\x1f" as whitespace, and float does not
REFUSED_TOKENS = st.sampled_from(
    ["1\x00", "nan", "-inf", "inf", "1e999", "abc", "", "0x10", "1__0", "--1", "-0.5", "-1e-300",
     "\x1c1", "\x1f1", "#1", "1 2"]
)
TABLE_LABELS = st.sampled_from(["a", "b", "c d", "", "x,y", '"q"', "#c", "éß", "a_b", "x\x1cy"])


@st.composite
def table_rows(draw, width, labeled, nonneg):
    """Rows of tokens, mostly ``width`` wide and well formed, with drawn odds of
    bad tokens and ragged rows; ``labeled`` rows start with a label."""
    bad_odds = draw(st.sampled_from([0, 0, 1, 4]))  # in 20
    ragged_odds = draw(st.sampled_from([0, 0, 1]))
    good = ACCEPTED_TOKENS.map(lambda t: t.replace("-", "", 1) if nonneg else t)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        n = width
        if draw(st.integers(0, 19)) < ragged_odds:
            n = draw(st.integers(0, width + 1))
        row = [draw(TABLE_LABELS)] if labeled else []
        for _ in range(n):
            row.append(draw(REFUSED_TOKENS if draw(st.integers(0, 19)) < bad_odds else good))
        rows.append(row)
    return rows


@st.composite
def tsv_tables(draw):
    """Text of a values TSV and, half the time, an uncertainty TSV."""
    width = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))

    def text(rows):
        return bom + "".join("\t".join(row) + newline for row in rows)

    values = text(draw(table_rows(width, True, False)))
    uncertainties = text(draw(table_rows(width, False, True))) if draw(st.booleans()) else None
    return values, uncertainties


@st.composite
def feature_tables(draw):
    """Text of a feature CSV written by ``csv.writer``."""
    k = draw(st.integers(1, 3))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    writer.writerow(["label"] + [f"f{j + 1}" for j in range(2 * k)])
    best = draw(table_rows(k, True, False))
    unc = draw(table_rows(k, False, True))
    writer.writerows(b + u for b, u in zip(best, unc))
    return draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()


def assert_same_as_oracle(read, reference):
    """``read()`` returns the dataset ``reference()`` describes, bit for bit, or raises its message."""
    try:
        labels, best, unc = reference()
    except ValueError as exc:
        with pytest.raises(DatasetFormatError) as info:
            read()
        assert str(info.value) == str(exc)
        return
    d = read()
    assert d.labels == labels
    assert d.best.view(np.uint64).tolist() == np.array(best, dtype=np.float64).view(np.uint64).tolist()
    assert d.uncertainty.view(np.uint64).tolist() == np.abs(np.array(unc, dtype=np.float64)).view(np.uint64).tolist()


class TestTableReader:
    @given(tsv_tables())
    @example(("a\t1\t2\nb\tx\t3\n\t1\t2\nc\t4\n", None))  # a bad number before a missing label and a ragged row
    @example(("a\t1_0\t١\r\nb\t１\t\xa01\r\n", "0\t-0\r\n1e-300\t1\x00\r\n"))
    @example(("\ufeffa\t1\n", "\ufeff-0.5\n"))
    # each fails a C reader without its guard: a control character it strips, a row wider
    # than the first in either file, a table wider than the values, a table of empty
    # number fields, labels NumPy never converts
    @example(("a\t1\nb\t\x1c2\n", None))
    @example(("a\t1\nb\t2\t3\n", None))
    @example(("a\t1\t2\nb\t3\t4\n", "0\t0\n0\t0\t0\n"))
    @example(("a\t1\nb\t2\n", "0\t0\n0\t0\n"))
    @example(("a\t\nb\t\n", None))
    @example(("a_b\t1\nx\x1cy\t2\r#c\t3\n", "0\r\n1\n\n2\n"))
    @settings(max_examples=300, deadline=None)
    def test_tsv_matches_per_token_reader(self, tables):
        values, uncertainties = tables
        with tempfile.TemporaryDirectory() as tmp:
            v, u = Path(tmp) / "v.tsv", Path(tmp) / "u.tsv"
            v.write_bytes(values.encode("utf-8"))
            if uncertainties is not None:
                u.write_bytes(uncertainties.encode("utf-8"))
            paths = (v, u if uncertainties is not None else None)
            assert_same_as_oracle(lambda: load_dataset(*paths), lambda: oracles.read_tsv(*paths))

    @given(feature_tables())
    @example("label,f1,f2\nA,1,-0.5\n,abc,0\n")  # a negative uncertainty before a bad number and no label
    @example('label,f1,f2\r\n"x,y",1_0,１\r\n#c,-0,\xa01\r\n')
    # each fails a C reader without its guard: a control character it strips, an empty
    # line it skips, a quoted number, a row wider than the header
    @example("label,f1,f2\nA,\x1f1,0\n")
    @example("label,f1,f2\nA,1,0\n\nB,1,0\n")
    @example('label,f1,f2\nA,"1",0\n')
    @example("label,f1,f2\nA,1,0,0\n")
    @settings(max_examples=300, deadline=None)
    def test_feature_csv_matches_per_token_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_same_as_oracle(lambda: read_feature_csv(path), lambda: oracles.read_feature_csv(path))


class TestCReader:
    def test_clean_tables_skip_the_per_row_parse(self, tmp_path, monkeypatch):
        # labels are never number fields: non-ASCII ones, spaces, "#", "_" and control characters keep the C path
        d = UncertainDataset.from_arrays(
            [[0.1, -2.5], [1e300, -0.0], [3.0, 5e-324]],
            [[0.25, 0.0], [1e-8, 7.0], [0.5, 1.7e308]],
            ["éß", "中 #c", "a_b\x1cx"],
        )
        save_dataset(d, tmp_path / "v.tsv", tmp_path / "u.tsv")
        write_feature_csv(d, tmp_path / "f.csv")
        parsed = []
        checked = series._reals
        monkeypatch.setattr(series, "_reals", lambda *args, **kw: parsed.append(args[0]) or checked(*args, **kw))
        assert load_dataset(tmp_path / "v.tsv", tmp_path / "u.tsv") == d
        assert read_feature_csv(tmp_path / "f.csv") == d
        assert parsed == []
        # a number only float reads takes the per-row parse, row by row
        write(tmp_path / "v.tsv", "a\t1_0\t2\nb\t3\t4\n")
        assert load_dataset(tmp_path / "v.tsv").best.tolist() == [[10.0, 2.0], [3.0, 4.0]]
        assert parsed == [f"{tmp_path / 'v.tsv'}:1", f"{tmp_path / 'v.tsv'}:2"]


EDGE_REALS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.0, -12.0, 0.1]
CSV_LABELS = ["a,b", '"q"', " lead", "trail ", "#hash", "été", "中", "plain", '""', "x\x0cy"]


@st.composite
def written_tables(draw, label_pool):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    reals = st.one_of(st.sampled_from(EDGE_REALS), finite, st.integers(-(10**6), 10**6).map(float))
    best = draw(arrays(np.float64, (n, m), elements=reals))
    unc = np.abs(draw(arrays(np.float64, (n, m), elements=reals)))
    return draw(st.lists(label_pool, min_size=n, max_size=n)), best, unc


class TestTableWriter:
    @given(written_tables(st.one_of(st.sampled_from(CSV_LABELS), labels)))
    @example((CSV_LABELS[:3], np.array([EDGE_REALS[:3]] * 3), np.abs([EDGE_REALS[3:6]] * 3)))
    @settings(max_examples=100, deadline=None)
    def test_feature_csv_bytes_equal_csv_writer(self, table):
        labels, best, unc = table
        with tempfile.TemporaryDirectory() as tmp:
            ours, reference = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_feature_csv(UncertainDataset.from_arrays(best, unc, labels), ours)
            oracles.write_feature_csv(labels, best.tolist(), unc.tolist(), reference)
            assert ours.read_bytes() == reference.read_bytes()

    # a first label that starts with U+FEFF is written after a byte-order mark, which the reader skips
    @given(written_tables(st.sampled_from(CSV_LABELS) | st.text("ab ,#\"é中\ufeff", min_size=1, max_size=4)))
    @example((["\ufeffa", "b"], np.array([[1.0], [2.0]]), np.array([[0.0], [0.5]])))
    @example((["\ufeff"], np.array([[-0.0, 5e-324]]), np.array([[0.0, 1.0]])))
    @settings(max_examples=100, deadline=None)
    def test_tsv_bytes_equal_per_value_format_and_round_trip(self, table):
        labels, best, unc = table
        d = UncertainDataset.from_arrays(best, unc, labels)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(d, tmp / "v.tsv", tmp / "u.tsv")
            oracles.write_tsv(labels, best.tolist(), unc.tolist(), tmp / "rv.tsv", tmp / "ru.tsv")
            assert (tmp / "v.tsv").read_bytes() == (tmp / "rv.tsv").read_bytes()
            assert (tmp / "u.tsv").read_bytes() == (tmp / "ru.tsv").read_bytes()
            loaded = load_dataset(tmp / "v.tsv", tmp / "u.tsv")
            assert loaded.labels == labels
            assert loaded.best.tobytes() == d.best.tobytes() and loaded.uncertainty.tobytes() == d.uncertainty.tobytes()
            save_dataset(loaded, tmp / "v2.tsv", tmp / "u2.tsv")
            assert (tmp / "v2.tsv").read_bytes() == (tmp / "v.tsv").read_bytes()
            assert (tmp / "u2.tsv").read_bytes() == (tmp / "u.tsv").read_bytes()


class TestDatasetInvariants:
    def test_rejects_no_instances(self):
        with pytest.raises(ValueError, match="^a dataset must contain at least one instance$"):
            UncertainDataset([])

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

    def test_never_equals_another_type(self):
        assert (UncertainDataset.from_arrays(np.zeros((1, 1)), np.zeros((1, 1)), ["a"]) == 1) is False


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
            assert UncertainVector(d.best[i], d.uncertainty[i]) == UncertainVector(best[i], unc[i])

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
            (np.zeros((2, 1)), np.zeros((2, 1)), ["a", ""], "instance 1 has no label"),
            (np.zeros((2, 1)), np.zeros((2, 1)), ["a", "x\t5"], r"instance 1 has label 'x\\t5'"),
            (np.zeros((2, 1)), np.zeros((2, 1)), ["a\rb", "c"], r"instance 0 has label 'a\\rb'"),
            (np.zeros((2, 1)), np.zeros((2, 1)), ["a", "b\n"], r"instance 1 has label 'b\\n'"),
            (np.zeros((2, 1)), np.zeros((2, 1)), ["a", 5], "instance 1 has label 5"),
        ],
        ids=[
            "shape", "one-dimensional", "label-count", "none-label", "inf", "nan", "no-rows",
            "no-columns", "empty-label", "tab-label", "cr-label", "lf-label", "non-str-label",
        ],
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
        assert dataset_std(certain([[3.0, 3.0], [3.0, 3.0]], ["a", "b"])) == 0.0

    def test_two_point_pool(self):
        assert dataset_std(certain([[0.0, 2.0]], ["a"])) == 1.0

    def test_single_instance(self):
        d = certain([[1.0, 3.0, 5.0]], ["a"])
        assert dataset_std(d) == pytest.approx(1.6329931618554521, rel=1e-12)


class TestInjectNoise:
    def test_degenerate_sigma_warns_and_returns_input(self):
        d = certain([[1.0, 1.0], [1.0, 1.0]], ["a", "b"])
        with pytest.warns(RuntimeWarning, match="standard deviation is 0"):
            out = inject_noise(d, NoiseSpec(seed=3))
        assert out is d

    def test_rejects_uncertain_input(self):
        d = UncertainDataset.from_arrays([[1.0, 2.0]], [[0.1, 0.0]], ["a"])
        with pytest.raises(ValueError, match="certain dataset"):
            inject_noise(d, NoiseSpec(seed=0))

    def test_deterministic(self, tmp_path):
        d = certain([[0.0, 1.0, 2.0], [5.0, 4.0, 3.0]], ["a", "b"])
        out1 = inject_noise(d, NoiseSpec(seed=11))
        out2 = inject_noise(d, NoiseSpec(seed=11))
        assert out1 == out2
        save_dataset(out1, tmp_path / "v1.tsv", tmp_path / "u1.tsv")
        save_dataset(out2, tmp_path / "v2.tsv", tmp_path / "u2.tsv")
        assert (tmp_path / "v1.tsv").read_bytes() == (tmp_path / "v2.tsv").read_bytes()
        assert (tmp_path / "u1.tsv").read_bytes() == (tmp_path / "u2.tsv").read_bytes()

    def test_different_seeds_differ(self):
        d = certain([[0.0, 1.0, 2.0]], ["a"])
        assert inject_noise(d, NoiseSpec(seed=1)) != inject_noise(d, NoiseSpec(seed=2))

    def test_preserves_shape_and_labels(self):
        d = certain([[0.0, 1.0], [2.0, 3.0]], ["a", "b"])
        out = inject_noise(d, NoiseSpec(seed=7))
        assert len(out) == len(d)
        assert out.series_length == d.series_length
        assert out.labels == d.labels

    def test_uncertainty_is_absolute_shift(self):
        d = certain([list(np.linspace(0, 9, 10)), list(np.linspace(9, 0, 10))], ["a", "b"])
        sigma = dataset_std(d)
        out = inject_noise(d, NoiseSpec(seed=5))
        for i, (before, after, after_u) in enumerate(zip(d.best, out.best, out.uncertainty)):
            expected = before + sigma * _instance_noise(5, i, 10)
            assert after.tobytes() == expected.tobytes()
            shift = np.abs(after - before)
            assert (after_u == shift).all()

    def test_noise_statistics(self):
        sigma = 2.5
        n, m = 100, 200
        d = certain([[0.0] * m for _ in range(n)], ["a"] * n)
        out = inject_noise(d, NoiseSpec(seed=123, fixed_scale=sigma))
        noise = out.best.ravel()
        assert noise.size >= 10_000
        assert abs(noise.mean()) <= 0.05 * sigma
        assert abs(noise.std() - sigma) <= 0.05 * sigma

    def test_fixed_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, fixed_scale=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, fixed_scale=-1.0)
        with pytest.raises(ValueError, match="fixed scale must be a finite number > 0, got inf"):
            NoiseSpec(seed=0, fixed_scale=float("inf"))


class TestSplitSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_split_seeds(0, "SomeDataset")
        assert a == derive_split_seeds(0, "SomeDataset")
        assert a[0] != a[1]
        assert a != derive_split_seeds(0, "OtherDataset")
        assert a != derive_split_seeds(1, "SomeDataset")
