import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

import oracles

from ust import (
    DimensionMismatchError,
    EncodedMatrix,
    GaussianEncodingStats,
    TreeParams,
    UncertainDataset,
    encode_best,
    encode_flatten,
    encode_gaussian,
    entropy_from_counts,
    evaluate,
    fit_gaussian_stats,
    load_model,
    read_feature_csv,
    save_model,
    tree_fit,
    tree_predict,
    write_feature_csv,
)
from ust.classify import _split_gains, model_to_json


def matrix(best, unc, labels):
    return UncertainDataset.from_arrays(best, unc, labels)


def tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def internal_nodes(node):
    if node.is_leaf:
        return 0
    return 1 + internal_nodes(node.left) + internal_nodes(node.right)


class TestFlatten:
    def test_single_feature(self):
        e = encode_flatten(matrix([[1.0]], [[0.5]], ["A"]))
        assert e.features.tolist() == [[1.0, 0.5]]
        assert e.encoding == "flatten"

    def test_zero_uncertainty_second_half(self):
        e = encode_flatten(matrix([[1.0, 2.0]], [[0.0, 0.0]], ["A"]))
        assert e.features.tolist() == [[1.0, 2.0, 0.0, 0.0]]

    def test_ordering_convention(self):
        e = encode_flatten(matrix([[3.0, 4.0]], [[0.1, 0.2]], ["A"]))
        assert e.features.tolist() == [[3.0, 4.0, 0.1, 0.2]]

    def test_lossless(self):
        rng = np.random.default_rng(0)
        f = matrix(rng.normal(size=(4, 3)), rng.uniform(size=(4, 3)), list("ABAB"))
        e = encode_flatten(f)
        k = f.series_length
        assert (e.features[:, :k] == f.best).all()
        assert (e.features[:, k:] == f.uncertainty).all()


class TestGaussianStats:
    def test_single_row(self):
        stats = fit_gaussian_stats(matrix([[2.0, 7.0]], [[0.0, 0.0]], ["A"]))
        assert stats.minimum == (2.0, 7.0)
        assert stats.maximum == (2.0, 7.0)

    def test_column_extremes(self):
        stats = fit_gaussian_stats(matrix([[1.0], [5.0], [3.0]], [[0]] * 3, list("ABA")))
        assert (stats.minimum, stats.maximum) == ((1.0,), (5.0,))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            GaussianEncodingStats((2.0,), (1.0,))

    def test_bounds_of_other_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError, match="^min and max must have the same length$"):
            GaussianEncodingStats((0.0,), (1.0, 2.0))


class TestGaussianEncoding:
    def test_peak_is_exactly_one(self):
        stats = GaussianEncodingStats((0.0,), (2.0,))  # mean 1.0
        e = encode_gaussian(matrix([[1.0]], [[0.7]], ["A"]), stats)
        assert e.features[0, 0] == 1.0

    def test_unit_offset_matches_independent_density(self):
        stats = GaussianEncodingStats((0.0,), (2.0,))
        e = encode_gaussian(matrix([[2.0]], [[0.0]], ["A"]), stats)
        assert e.features[0, 0] == pytest.approx(math.exp(-math.pi), rel=1e-15)
        # independent check: normal density with std 1/sqrt(2*pi)
        expected = norm.pdf(2.0, loc=1.0, scale=1.0 / math.sqrt(2.0 * math.pi))
        assert e.features[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_uncertainty_is_ignored(self):
        stats = GaussianEncodingStats((0.0,), (2.0,))
        a = encode_gaussian(matrix([[1.5]], [[0.0]], ["A"]), stats)
        b = encode_gaussian(matrix([[1.5]], [[9.0]], ["A"]), stats)
        assert a.features[0, 0] == b.features[0, 0]

    def test_symmetric_about_mean(self):
        stats = GaussianEncodingStats((0.0,), (2.0,))
        lo = encode_gaussian(matrix([[0.25]], [[0.0]], ["A"]), stats)
        hi = encode_gaussian(matrix([[1.75]], [[0.0]], ["A"]), stats)
        assert lo.features[0, 0] == hi.features[0, 0]

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        best = rng.uniform(0, 10, size=(20, 3))
        f = matrix(best, np.zeros_like(best), ["A"] * 20)
        e = encode_gaussian(f, fit_gaussian_stats(f))
        assert (e.features > 0).all() and (e.features <= 1).all()

    def test_out_of_range_test_values_not_clamped(self):
        stats = GaussianEncodingStats((0.0,), (2.0,))
        e = encode_gaussian(matrix([[5.0]], [[0.0]], ["A"]), stats)
        assert e.features[0, 0] == pytest.approx(math.exp(-math.pi * 16.0), rel=1e-12)

    def test_column_count_checked(self):
        stats = GaussianEncodingStats((0.0,), (2.0,))
        with pytest.raises(DimensionMismatchError):
            encode_gaussian(matrix([[1.0, 2.0]], [[0, 0]], ["A"]), stats)


class TestTreeFit:
    def test_linearly_separable_single_feature(self):
        e = EncodedMatrix(np.array([[0.0], [1.0], [2.0], [3.0]]), list("AABB"), "best")
        model = tree_fit(e)
        assert tree_depth(model.root) == 1
        assert tree_predict(model, e) == list("AABB")

    def test_xor_solved_at_depth_two(self):
        e = EncodedMatrix(
            np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            list("ABBA"),
            "best",
        )
        model = tree_fit(e)
        assert tree_depth(model.root) == 2
        assert tree_predict(model, e) == list("ABBA")

    def test_single_class_yields_single_leaf(self):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("AA"), "best")
        model = tree_fit(e)
        assert model.root.is_leaf
        assert model.root.label == "A"

    def test_deterministic_serialized_form(self):
        rng = np.random.default_rng(2)
        e = EncodedMatrix(rng.normal(size=(30, 4)), [str(i % 3) for i in range(30)], "best")
        a = tree_fit(e)
        b = tree_fit(e)
        assert model_to_json(a) == model_to_json(b)

    def test_full_depth_memorizes_clean_data(self):
        rng = np.random.default_rng(3)
        e = EncodedMatrix(rng.normal(size=(40, 3)), [str(i % 2) for i in range(40)], "best")
        model = tree_fit(e, TreeParams(max_depth=None, min_samples_leaf=1))
        assert evaluate(tree_predict(model, e), e.labels) == 1.0

    def test_max_depth_zero_gives_majority_leaf(self):
        e = EncodedMatrix(np.array([[0.0], [1.0], [2.0]]), list("AAB"), "best")
        model = tree_fit(e, TreeParams(max_depth=0))
        assert model.root.is_leaf
        assert model.root.label == "A"

    def test_majority_tie_prefers_smallest_label(self):
        e = EncodedMatrix(np.array([[0.0], [0.0]]), list("BA"), "best")
        model = tree_fit(e, TreeParams(max_depth=0))
        assert model.root.label == "A"

    def test_min_samples_leaf_blocks_narrow_splits(self):
        e = EncodedMatrix(np.array([[0.0], [1.0], [2.0], [3.0]]), list("ABBB"), "best")
        model = tree_fit(e, TreeParams(min_samples_leaf=2))
        if not model.root.is_leaf:
            assert tree_depth(model.root) == 1
            sizes = [sum(model.root.left.distribution.values()), sum(model.root.right.distribution.values())]
            assert min(sizes) >= 2

    def test_deeper_than_recursion_limit(self):
        n = 1500  # alternating labels on 0..n-1 grow a chain n - 1 levels deep
        e = EncodedMatrix(np.arange(n, dtype=float)[:, None], [str(i % 2) for i in range(n)], "best")
        model = tree_fit(e)
        depth, node = 0, model.root
        while not node.is_leaf:
            depth += 1
            node = node.right if node.left.is_leaf else node.left
        assert depth == n - 1
        assert evaluate(tree_predict(model, e), e.labels) == 1.0
        shuffled = EncodedMatrix(np.random.default_rng(8).uniform(-1, n, (n, 1)), None, "best")
        assert tree_predict(model, shuffled) == oracles.walk_tree(model.root, shuffled.features)

    def test_requires_labels(self):
        with pytest.raises(ValueError):
            tree_fit(EncodedMatrix(np.array([[0.0]]), None, "best"))

    def test_label_count_must_match_rows(self):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("ABA"), "best")
        with pytest.raises(DimensionMismatchError, match=r"shape \(2, 1\) for 3 labels"):
            tree_fit(e)

    def test_rejects_1d_features(self):
        with pytest.raises(DimensionMismatchError, match=r"shape \(3,\)"):
            tree_fit(EncodedMatrix(np.array([0.0, 1.0, 2.0]), list("ABA"), "best"))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="^cannot fit a tree on an empty matrix$"):
            tree_fit(EncodedMatrix(np.empty((0, 2)), [], "best"))

    def test_sorts_only_at_the_root(self, monkeypatch):
        # each column is sorted once per tree; every node below the root partitions its parent's order
        argsort, calls = np.argsort, []
        monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: calls.append(1) or argsort(*args, **kwargs))
        rng = np.random.default_rng(9)
        model = tree_fit(EncodedMatrix(rng.normal(size=(60, 3)), [str(i % 3) for i in range(60)], "best"))
        assert internal_nodes(model.root) >= 3
        assert len(calls) == 1


@st.composite
def cart_cases(draw):
    """Rows, labels and tree params; grid features force heavy value ties."""
    n = draw(st.integers(2, 24))
    n_features = draw(st.integers(1, 3))
    if draw(st.booleans()):
        value = st.integers(0, 3).map(float)
    else:
        value = st.floats(-1e3, 1e3, allow_nan=False)
    rows = draw(st.lists(st.lists(value, min_size=n_features, max_size=n_features), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[0.5] + row for row in rows]  # an all-equal column admits no cut
    classes = "ABCD"[: draw(st.integers(2, 4))]
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    return rows, labels, draw(st.sampled_from([None, 0, 2])), draw(st.integers(1, 3))


class TestTreeOracle:
    @given(cart_cases())
    @example(([[0.0], [1.0], [2.0]], list("ABA"), None, 2))  # min_samples_leaf forbids every cut
    @example(([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 2.0]], list("ABBC"), None, 1))  # all-equal column
    @example(([[1.0 + 2**-52], [1.0 + 2**-51]], list("AB"), None, 1))  # midpoint rounds up
    @example((  # tied grid: min_samples_leaf 2 keeps the root's cut and forbids a cut below it
        [[1.0, 2.0], [1.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]],
        list("AAAAABBB"), None, 2,
    ))
    @example((  # at depths 2 and 3, the column before the split one is all-equal within the node
        [[1.0, 2.0, 3.0], [3.0, 0.0, 0.0], [3.0, 3.0, 0.0], [1.0, 3.0, 1.0], [1.0, 3.0, 1.0], [1.0, 2.0, 2.0],
         [0.0, 0.0, 3.0]],
        list("CCBCABC"), None, 1,
    ))
    @settings(max_examples=150, deadline=None)
    def test_serialized_tree_equals_oracle(self, case):
        rows, labels, max_depth, min_samples_leaf = case
        e = EncodedMatrix(np.array(rows), labels, "best")
        model = tree_fit(e, TreeParams(max_depth, min_samples_leaf))
        doc = json.loads(model_to_json(model))
        assert doc["tree"] == oracles.grow_tree(rows, labels, max_depth, min_samples_leaf)

    def test_adjacent_float_cut_separates(self):
        lo, hi = 1.0 + 2**-52, 1.0 + 2**-51  # (lo + hi) / 2 rounds to hi
        e = EncodedMatrix(np.array([[lo], [hi]]), list("AB"), "best")
        model = tree_fit(e)
        assert model.root.threshold == lo
        assert tree_predict(model, e) == list("AB")

    def test_fit_memory_has_no_quadratic_table(self):
        rng = np.random.default_rng(6)
        e = EncodedMatrix(rng.normal(size=(6000, 2)), [str(i % 2) for i in range(6000)], "best")
        tracemalloc.start()
        try:
            tree_fit(e, TreeParams(max_depth=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # an (n+1)**2 float64 table alone would be 288 MB


def test_entropy_of_no_samples_is_zero():
    assert entropy_from_counts([], 0) == 0.0


class TestSplitGains:
    def test_row_without_valid_cut_keeps_none(self):
        # were it to keep its cuts, the tree would split such a node without end
        labels = np.array([[0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 1, 0]])
        valid = np.array([[False] * 4, [True] * 4, [True, True, True, False]])
        rows, pos, gains = _split_gains(labels, valid, np.array([2, 2]))
        assert (rows.tolist(), pos.tolist()) == ([1, 2, 2], [1, 0, 2])  # row 2 ties at its first and third cut
        assert gains[0] == 1.0 and gains[1] == gains[2]
        for row in (1, 2):  # the other rows of the call are unaffected
            alone = _split_gains(labels[row : row + 1], valid[row : row + 1], np.array([2, 2]))
            assert (pos[rows == row].tolist(), gains[rows == row].tolist()) == (alone[1].tolist(), alone[2].tolist())


@st.composite
def predict_cases(draw):
    """A train and a test split of uncertain features, train labels and tree params."""
    width = draw(st.integers(1, 3))
    value = draw(st.sampled_from([st.integers(0, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False)]))

    def split(n):
        best = draw(arrays(np.float64, (n, width), elements=value))
        return best, np.abs(draw(arrays(np.float64, (n, width), elements=value)))

    train, test = split(draw(st.integers(2, 24))), split(draw(st.integers(1, 24)))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=len(train[0]), max_size=len(train[0])))
    params = TreeParams(draw(st.sampled_from([None, 0, 2])), draw(st.integers(1, 3)))
    return matrix(*train, labels), matrix(*test, ["?"] * len(test[0])), params


class TestTreePredict:
    @given(predict_cases(), st.sampled_from(["best", "flatten", "gaussian"]))
    @settings(max_examples=100, deadline=None)
    def test_equals_row_walk(self, case, encoding):
        train, test, params = case
        stats = fit_gaussian_stats(train)
        encode = {"best": encode_best, "flatten": encode_flatten, "gaussian": lambda f: encode_gaussian(f, stats)}
        model = tree_fit(encode[encoding](train), params)
        for f in (train, test):
            e = encode[encoding](f)
            assert tree_predict(model, e) == oracles.walk_tree(model.root, e.features)

    def test_empty_matrix(self):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best")
        model = tree_fit(e)
        empty = EncodedMatrix(np.empty((0, 1)), None, "best")
        assert tree_predict(model, empty) == []

    def test_empty_matrix_of_another_width(self):
        model = tree_fit(EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best"))
        with pytest.raises(DimensionMismatchError, match=r"shape \(0, 2\), model expects 1 columns"):
            tree_predict(model, EncodedMatrix(np.empty((0, 2)), None, "best"))

    def test_rejects_1d_features(self):
        model = tree_fit(EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best"))
        with pytest.raises(DimensionMismatchError, match=r"shape \(2,\)"):
            tree_predict(model, EncodedMatrix(np.array([0.0, 1.0]), None, "best"))

    def test_hand_traced_fixture(self):
        from ust.classify import DecisionTreeModel, TreeNode

        root = TreeNode(
            feature=0,
            threshold=0.5,
            left=TreeNode(label="A", distribution={"A": 2}),
            right=TreeNode(
                feature=1,
                threshold=2.0,
                left=TreeNode(label="B", distribution={"B": 1}),
                right=TreeNode(label="C", distribution={"C": 1}),
            ),
        )
        model = DecisionTreeModel(root, TreeParams(), 2, ("A", "B", "C"), "best", None)
        e = EncodedMatrix(np.array([[0.0, 9.0], [1.0, 1.0], [1.0, 5.0]]), None, "best")
        assert tree_predict(model, e) == ["A", "B", "C"]

    def test_rejects_features_of_another_encoding(self):
        rng = np.random.default_rng(4)
        f = matrix(rng.normal(size=(20, 2)), rng.uniform(size=(20, 2)), [str(i % 2) for i in range(20)])
        model = tree_fit(encode_gaussian(f, fit_gaussian_stats(f)))
        best = encode_best(f)
        assert best.features.shape[1] == model.n_features
        with pytest.raises(ValueError, match="best-encoded, model expects gaussian"):
            tree_predict(model, best)

    def test_dimension_mismatch(self):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best")
        model = tree_fit(e)
        bad = EncodedMatrix(np.array([[0.0, 1.0]]), None, "best")
        with pytest.raises(DimensionMismatchError):
            tree_predict(model, bad)


class TestEvaluate:
    def test_identical(self):
        assert evaluate(list("ABAB"), list("ABAB")) == 1.0

    def test_disjoint(self):
        assert evaluate(list("AAAA"), list("BBBB")) == 0.0

    def test_three_of_four(self):
        assert evaluate(list("ABAB"), list("ABAA")) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(["A"], ["A", "B"])

    def test_rejects_empty_sequences(self):
        with pytest.raises(ValueError, match="^cannot evaluate empty prediction sequences$"):
            evaluate([], [])


class TestModelSerialization:
    @pytest.mark.parametrize(
        "encode",
        [encode_best, encode_flatten, lambda f: encode_gaussian(f, fit_gaussian_stats(f))],
        ids=["best", "flatten", "gaussian"],
    )
    def test_round_trip_predictions(self, encode, tmp_path):
        rng = np.random.default_rng(4)
        f = matrix(rng.normal(size=(20, 2)), rng.uniform(size=(20, 2)), [str(i % 2) for i in range(20)])
        e = encode(f)
        model = tree_fit(e)
        assert (model.encoding, model.stats) == (e.encoding, e.stats)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        assert tree_predict(loaded, e) == tree_predict(model, e)

    def test_schema_keys(self, tmp_path):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best")
        model = tree_fit(e)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"encoding", "gaussian_stats", "n_features", "classes", "params", "tree"}
        assert doc["gaussian_stats"] is None
        node = doc["tree"]
        assert set(node) == {"feature", "threshold", "left", "right"}
        assert set(node["left"]) == {"leaf", "distribution"}

    def test_missing_tree_is_malformed(self, tmp_path):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best")
        path = tmp_path / "model.json"
        save_model(tree_fit(e), path)
        doc = json.loads(path.read_text())
        del doc["tree"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"model\.json: malformed model file: KeyError"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace('"feature": 0', '"feature": "x"'),
            lambda text: text[:-3],
            lambda text: text.replace('"feature": 0', '"feature": 99'),
            lambda text: text.replace('"feature": 0', '"feature": 0.9'),
            lambda text: text.replace('"threshold": 0.5', '"threshold": "0.5"'),
            lambda text: text.replace('"threshold": 0.5', '"threshold": NaN'),
            lambda text: text.replace('"leaf": "A"', '"leaf": "ZZZ"'),
            lambda text: text.replace('"A": 1', '"A": 0'),
            lambda text: text.replace('"A": 1', '"Q": 1'),
            lambda text: text.replace('"encoding": "best"', '"encoding": "bogus"'),
            lambda text: text.replace('"classes": [', '"classes": ["A",'),
            lambda text: text.replace('"classes": [', '"classes": ["",'),
            lambda text: text.replace('"classes": [', '"classes": "AB", "_": ['),
            lambda text: text.replace('"min_samples_leaf": 1', '"min_samples_leaf": 1.5'),
            lambda text: text.replace('"max_depth": null', '"max_depth": 2.5'),
            lambda text: text.replace('"gaussian_stats": null', '"gaussian_stats": {"min": [0], "max": [1]}'),
        ],
        ids=[
            "string-feature", "invalid-json", "feature-out-of-range", "float-feature",
            "string-threshold", "nan-threshold", "unknown-leaf", "zero-count", "unknown-count-class",
            "unknown-encoding", "repeated-class", "empty-class", "string-classes",
            "float-min-samples-leaf", "float-max-depth", "stats-without-gaussian",
        ],
    )
    def test_malformed_value_names_file(self, edit, tmp_path):
        e = EncodedMatrix(np.array([[0.0], [1.0]]), list("AB"), "best")
        path = tmp_path / "model.json"
        save_model(tree_fit(e), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=r"model\.json: malformed model file: "):
            load_model(path)

    @pytest.mark.parametrize(
        "stats",
        [
            None,
            {"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]},
            {"min": ["a", "b"], "max": ["a", "b"]},
            {"min": [math.nan, 0.0], "max": [1.0, 1.0]},
        ],
        ids=["missing", "three-columns", "string-values", "nan-min"],
    )
    def test_malformed_gaussian_stats_names_file(self, stats, tmp_path):
        rng = np.random.default_rng(4)
        f = matrix(rng.normal(size=(20, 2)), rng.uniform(size=(20, 2)), [str(i % 2) for i in range(20)])
        fitted = fit_gaussian_stats(f)
        path = tmp_path / "model.json"
        save_model(tree_fit(encode_gaussian(f, fitted)), path)
        doc = json.loads(path.read_text())
        doc["gaussian_stats"] = stats
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"model\.json: malformed model file: "):
            load_model(path)

    @pytest.mark.parametrize(
        "content, kind",
        [
            (b"[" * 100_000 + b"]" * 100_000, "RecursionError"),
            (b'{"encoding": "\xff"}', "UnicodeDecodeError"),
        ],
        ids=["too-deep", "not-utf8"],
    )
    def test_undecodable_file_names_file(self, content, kind, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=rf"model\.json: malformed model file: {kind}"):
            load_model(path)


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        f = matrix(rng.normal(size=(6, 3)), rng.uniform(size=(6, 3)), [f"c{i % 2}" for i in range(6)])
        path = tmp_path / "features.csv"
        write_feature_csv(f, path)
        loaded = read_feature_csv(path)
        assert loaded == f  # labels, best and uncertainty all equal

    def test_header_layout(self, tmp_path):
        f = matrix([[1.0, 2.0]], [[0.1, 0.2]], ["A"])
        path = tmp_path / "features.csv"
        write_feature_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,f1,f2,f3,f4"
        assert lines[1].startswith("A,1,2,0.1")

    def test_rejects_odd_feature_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f1,f2,f3\nA,1,2,3\n")
        with pytest.raises(ValueError, match="f1..f2k"):
            read_feature_csv(path)

    def test_rejects_other_column_names(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x,y\nA,1,0\n")
        with pytest.raises(ValueError, match="f1..f2k"):
            read_feature_csv(path)

    def test_rejects_negative_uncertainty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f1,f2\nA,1,-0.5\n")
        with pytest.raises(ValueError, match="negative uncertainty"):
            read_feature_csv(path)

    def test_non_numeric_token_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f1,f2\nA,1,0.5\na,1.0,abc\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: .*'abc'"):
            read_feature_csv(path)
