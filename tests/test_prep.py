"""Preprocessing tests: CSV ingestion, one-hot, PCA, min-max, splitting."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vqclass.errors import ConfigError, DataError
from vqclass.prep import (
    load_csv,
    minmax_fit,
    minmax_transform,
    one_hot_encode,
    pca_fit,
    pca_transform,
    stratified_split,
)


def json_round_trip(model):
    """A fitted dict as prep writes it to model.json and the load stage reads it back."""
    text = json.dumps({key: a.tolist() for key, a in model.items()})
    return {key: np.asarray(v, dtype=np.float64) for key, v in json.loads(text).items()}


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write_csv(tmp_path, "a,b,class\n1,2,P\n3,4,H\n5,6,P\n")
        table = load_csv(path, "class", "P")
        assert table.feature_names == ["a", "b"]
        np.testing.assert_array_equal(table.features, [[1, 2], [3, 4], [5, 6]])
        assert table.labels.tolist() == [1, 0, 1]

    def test_sha256_of_file_bytes(self, tmp_path):
        path = write_csv(tmp_path, "a,class\r\n1,P\r\n2,H\r\n")
        expected = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert load_csv(path, "class", "P").sha256 == expected

    @pytest.mark.parametrize("text", ["class,a,b\nP,1,2\nH,3,4\n", "a,b,class\n1,2,P\n3,4,H\n"])
    def test_byte_order_mark_dropped(self, tmp_path, text):
        # as Excel's "CSV UTF-8" writes: the label column first was not found, and
        # otherwise the mark leaked into the first feature name
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        table = load_csv(str(path), "class", "P")
        assert table.feature_names == ["a", "b"]
        assert table.labels.tolist() == [1, 0]
        assert table.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,class\n\xe9,P\n1,H\n".encode("latin-1"))
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(str(path), "class", "P")

    def test_overlong_cell_rejected(self, tmp_path):
        # a cell over the csv module's 131,072-character field limit raised _csv.Error: exit 2
        path = write_csv(tmp_path, "a,class\n1,P\n" + "9" * 200_000 + ",H\n")
        with pytest.raises(DataError, match=r"line 3: field larger than field limit"):
            load_csv(path, "class", "P")

    @pytest.mark.parametrize("text, label_column", [
        ("a,class\n1,P\n" + "9" * 5_000 + ",H\n", "class"),  # a non-finite cell
        ("a,class\n1,P\n2,H\n", "c" * 10_000),  # a label column not in the header
        ("a,class\n" + "".join(f"{i},{'v' * 10_000}{i}\n" for i in range(3)), "class"),
        ("{0},{0},class\n1,2,P\n3,4,H\n".format("a" * 10_000), "class"),  # repeated names
    ], ids=["non-finite-cell", "label-column", "label-values", "repeated-names"])
    def test_message_quotes_bounded_values(self, tmp_path, text, label_column):
        # each value the message quotes is cut at 120 characters
        path = write_csv(tmp_path, text)
        with pytest.raises(DataError) as err:
            load_csv(path, label_column, "P")
        assert len(str(err.value)) - len(path) < 300, str(err.value)[:400]

    def test_ragged_row_names_row_number(self, tmp_path):
        rows = ["a,b,class"] + [f"{i},{i},H" for i in range(1, 7)] + ["7,P", "8,8,P"]
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 7"):
            load_csv(path, "class", "P")

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path, "class", "P")

    def test_repeated_column_names_rejected(self, tmp_path):
        # a second label column would otherwise be one-hot encoded into the features
        path = write_csv(tmp_path, "f0,class,f1,class,f0\n1,P,2,P,3\n4,H,5,H,6\n")
        with pytest.raises(DataError, match=r"repeated column names \['class', 'f0'\]"):
            load_csv(path, "class", "P")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, "class", "P")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(str(tmp_path / "nope.csv"), "class", "P")

    def test_label_column_must_be_binary(self, tmp_path):
        path = write_csv(tmp_path, "a,class\n1,P\n2,H\n3,X\n")
        with pytest.raises(DataError, match="distinct"):
            load_csv(path, "class", "P")

    def test_positive_label_must_exist(self, tmp_path):
        path = write_csv(tmp_path, "a,class\n1,P\n2,H\n")
        with pytest.raises(DataError, match="positive"):
            load_csv(path, "class", "Q")

    def test_nonfinite_value_names_file(self, tmp_path):
        path = write_csv(tmp_path, "a,class\n1,P\ninf,H\n")
        with pytest.raises(DataError) as info:
            load_csv(path, "class", "P")
        assert str(info.value) == f"{path}: column 'a' row 2: non-finite value 'inf'"

    def test_blank_numeric_cell_names_file(self, tmp_path):
        path = write_csv(tmp_path, "a,b,class\n1,0.5,P\n2,,H\n3,0.25,P\n4,1.5,H\n")
        with pytest.raises(DataError) as info:
            load_csv(path, "class", "P")
        assert str(info.value) == f"{path}: column 'b' row 2: empty cell in a numeric column"

    def test_too_many_categories_names_file(self, tmp_path):
        rows = "".join(f"cat{i},{'P' if i % 2 else 'H'}\n" for i in range(65))
        path = write_csv(tmp_path, "col,class\n" + rows)
        with pytest.raises(DataError) as info:
            load_csv(path, "class", "P")
        assert str(info.value).startswith(f"{path}: column 'col' has 65 distinct categories")


class TestOneHot:
    def _encode(self, columns, rows):
        return one_hot_encode(columns, rows, "class", "P")

    def test_label_mapping(self):
        _, labels, _ = self._encode(["class"], [["P"], ["H"], ["P"]])
        assert labels.tolist() == [1, 0, 1]

    def test_categorical_expansion(self):
        features, _, names = self._encode(["col", "class"], [["a", "P"], ["b", "H"], ["a", "P"]])
        assert names == ["col=a", "col=b"]
        np.testing.assert_array_equal(features, [[1, 0], [0, 1], [1, 0]])

    def test_numeric_passthrough(self):
        features, _, _ = self._encode(["x", "class"], [["1.5", "P"], ["2.0", "H"]])
        np.testing.assert_array_equal(features, [[1.5], [2.0]])

    def test_idempotent_on_numeric_tables(self):
        features, _, names = self._encode(
            ["x", "y", "class"], [["1", "2", "P"], ["3", "4.5", "H"], ["-1", "0", "P"]]
        )
        np.testing.assert_array_equal(features, [[1, 2], [3, 4.5], [-1, 0]])
        assert names == ["x", "y"]

    def test_too_many_categories_rejected(self):
        rows = [[f"cat{i}", "P" if i % 2 else "H"] for i in range(65)]
        with pytest.raises(DataError, match="65 distinct"):
            self._encode(["col", "class"], rows)

    def test_nonfinite_numeric_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            self._encode(["x", "class"], [["1.0", "P"], ["nan", "H"]])

    @pytest.mark.parametrize("blank", ["", " "])
    def test_blank_numeric_cell_rejected(self, blank):
        rows = [["0.5", "P"], [blank, "H"], ["0.25", "P"], ["1.5", "H"]]
        with pytest.raises(DataError, match=r"column 'b' row 2: empty cell"):
            self._encode(["b", "class"], rows)

    def test_blank_cells_in_a_categorical_column_are_a_category(self):
        features, _, names = self._encode(["c", "class"], [["x", "P"], ["", "H"], ["", "P"]])
        assert names == ["c=", "c=x"]
        assert features.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]


class TestPca:
    def test_rank_one_line(self):
        x = np.array([[t, 2 * t] for t in (-2.0, -1.0, 0.5, 2.5)])
        model = pca_fit(x, 1)
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(model["components"][0], direction, atol=1e-12)
        total_var = x.var(axis=0, ddof=1).sum()
        assert model["explained_variance"][0] == pytest.approx(total_var, rel=1e-12)

    def test_transform_of_training_mean_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 6))
        model = pca_fit(x, 3)
        np.testing.assert_allclose(
            pca_transform(model, x.mean(axis=0)[None, :]), np.zeros((1, 3)), atol=1e-12
        )

    def test_projector_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 8))
        model = pca_fit(x, 5)
        got = model["components"].T @ model["components"]
        cov = np.cov(x, rowvar=False, ddof=1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:5]]
        expect = top @ top.T
        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(2)
        model = pca_fit(rng.normal(size=(30, 10)), 6)
        np.testing.assert_allclose(
            model["components"] @ model["components"].T, np.eye(6), atol=1e-10
        )

    def test_explained_variance_bounded_by_total(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 7)) * rng.uniform(0.5, 4.0, size=7)
        model = pca_fit(x, 4)
        assert np.all(np.diff(model["explained_variance"]) <= 1e-12)
        assert model["explained_variance"].sum() <= x.var(axis=0, ddof=1).sum() + 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        model = pca_fit(rng.normal(size=(15, 5)), 3)
        for row in model["components"]:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            pca_fit(np.zeros((3, 5)) + np.arange(5), 4)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DataError):
            pca_fit(np.full((6, 4), 3.14), 2)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.normal(size=(10, 4)), 2)
        back = json_round_trip(model)
        np.testing.assert_array_equal(back["mean"], model["mean"])
        np.testing.assert_array_equal(back["components"], model["components"])
        np.testing.assert_array_equal(back["explained_variance"], model["explained_variance"])


class TestMinMax:
    def test_basic_scaling(self):
        model = minmax_fit(np.array([[0.0], [5.0], [10.0]]))
        out = minmax_transform(model, np.array([[0.0], [5.0], [10.0]]))
        np.testing.assert_allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_constant_feature_maps_to_zero(self):
        model = minmax_fit(np.full((3, 1), 7.0))
        out = minmax_transform(model, np.array([[7.0], [9.0]]))
        np.testing.assert_array_equal(out.ravel(), [0.0, 0.0])

    def test_out_of_range_clipped(self):
        model = minmax_fit(np.array([[0.0], [10.0]]))
        out = minmax_transform(model, np.array([[15.0], [-3.0]]))
        np.testing.assert_array_equal(out.ravel(), [1.0, 0.0])

    def test_tiny_span_does_not_overflow(self):
        # a subnormal span once made (1.0 - 0.0) / 2.2e-311 overflow before the clip
        model = minmax_fit(np.array([[0.0], [2.2e-311]]))
        with np.errstate(all="raise"):
            out = minmax_transform(model, np.array([[1.0], [-1.0], [2.2e-311]]))
        np.testing.assert_array_equal(out.ravel(), [1.0, 0.0, 1.0])

    def test_models_immutable_after_fit(self):
        train = np.array([[0.0, 1.0], [4.0, 3.0]])
        model = minmax_fit(train)
        lo, hi = model["min"].copy(), model["max"].copy()
        minmax_transform(model, np.array([[99.0, -99.0]]))
        np.testing.assert_array_equal(model["min"], lo)
        np.testing.assert_array_equal(model["max"], hi)

    def test_serialization_round_trip(self):
        model = minmax_fit(np.array([[0.0, -2.0], [1.0, 5.0]]))
        back = json_round_trip(model)
        np.testing.assert_array_equal(back["min"], model["min"])
        np.testing.assert_array_equal(back["max"], model["max"])

    @given(
        arrays(np.float64, (6, 3), elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, (4, 3), elements=st.floats(-1e7, 1e7)),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_unit_interval(self, train, test):
        model = minmax_fit(train)
        out = minmax_transform(model, test)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)


def _labels(labels):
    return np.asarray(labels, dtype=np.int64)


class TestStratifiedSplit:
    def test_balanced_ten_samples(self):
        labels = _labels([0] * 5 + [1] * 5)
        train, test = stratified_split(labels, 0.2, seed=0)
        assert train.size == 8 and test.size == 2
        assert sorted(np.unique(labels[test]).tolist()) == [0, 1]

    def test_rounding_rule(self):
        labels = _labels([0] * 2 + [1] * 4)
        train, test = stratified_split(labels, 0.5, seed=3)
        assert int(np.sum(labels[test] == 1)) == 2
        assert int(np.sum(labels[test] == 0)) == 1

    def test_deterministic(self):
        labels = _labels([0] * 6 + [1] * 6)
        a = stratified_split(labels, 0.25, seed=5)
        b = stratified_split(labels, 0.25, seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_partition_is_disjoint_and_complete(self):
        labels = _labels([0] * 7 + [1] * 9)
        train, test = stratified_split(labels, 0.3, seed=1)
        merged = sorted(train.tolist() + test.tolist())
        assert merged == list(range(16))

    def test_single_sample_class_rejected(self):
        labels = _labels([0, 1, 1, 1])
        with pytest.raises(DataError):
            stratified_split(labels, 0.25, seed=0)

    def test_fraction_validation(self):
        labels = _labels([0, 0, 1, 1])
        with pytest.raises(ConfigError):
            stratified_split(labels, 0.0, seed=0)
        with pytest.raises(ConfigError):
            stratified_split(labels, 1.0, seed=0)

    def test_models_fit_on_train_only_no_leakage(self):
        # classic guard: transforming test rows must not move the models
        labels = _labels([0] * 10 + [1] * 10)
        features = np.random.default_rng(0).normal(size=(labels.size, 3))
        train, test = stratified_split(labels, 0.2, seed=2)
        pca = pca_fit(features[train], 2)
        mean_before = pca["mean"].copy()
        z_train = pca_transform(pca, features[train])
        mm = minmax_fit(z_train)
        lo_before = mm["min"].copy()
        pca_transform(pca, features[test])
        minmax_transform(mm, pca_transform(pca, features[test]))
        np.testing.assert_array_equal(pca["mean"], mean_before)
        np.testing.assert_array_equal(mm["min"], lo_before)
