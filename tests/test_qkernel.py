"""Kernel tests: fidelity entries, Gram-matrix properties, CSV export."""

import math

import numpy as np
import pytest

from vqclass.errors import EncodingError
from vqclass.featmap import FeatureMapSpec
from vqclass.qkernel import kernel_matrix, kernel_to_csv

SPEC5 = FeatureMapSpec(5, 1, "full")


def kernel_entry(x, x_other, spec):
    """One fidelity, computed as a 1 x 1 kernel matrix."""
    return kernel_matrix(np.array([x]), np.array([x_other]), spec).values[0, 0]


class TestKernelEntry:
    def test_self_overlap_is_one(self):
        x = [0.2, 0.4, 0.6, 0.8, 0.5]
        assert kernel_entry(x, x, SPEC5) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_closed_form(self):
        # x=1 puts phase e^{2i} on |1>: |(1 + e^{2i}) / 2|^2 = cos^2(1)
        spec = FeatureMapSpec(1)
        assert kernel_entry([0.0], [1.0], spec) == pytest.approx(math.cos(1.0) ** 2, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
            assert kernel_entry(x, y, SPEC5) == pytest.approx(
                kernel_entry(y, x, SPEC5), abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(EncodingError):
            kernel_entry([0.1, 0.2], [0.1, 0.2, 0.3], FeatureMapSpec(2))


class TestKernelMatrix:
    def test_gram_matrix_properties(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(0, 1, size=(20, 5))
        km = kernel_matrix(samples, samples, SPEC5)
        assert np.max(np.abs(km.values - km.values.T)) < 1e-10
        assert np.max(np.abs(np.diag(km.values) - 1.0)) < 1e-10
        assert np.linalg.eigvalsh(km.values).min() >= -1e-8

    def test_single_sample(self):
        km = kernel_matrix(np.array([[0.3, 0.7]]), np.array([[0.3, 0.7]]), FeatureMapSpec(2))
        np.testing.assert_allclose(km.values, [[1.0]], atol=1e-12)

    def test_rectangular_shape(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, size=(3, 2))
        b = rng.uniform(0, 1, size=(2, 2))
        km = kernel_matrix(a, b, FeatureMapSpec(2))
        assert km.values.shape == (3, 2)
        assert km.row_ids == [0, 1, 2]
        assert km.col_ids == [0, 1]

    def test_cached_path_equals_naive_per_pair(self):
        rng = np.random.default_rng(3)
        spec = FeatureMapSpec(3, 1, "full")
        a = rng.uniform(0, 1, size=(4, 3))
        b = rng.uniform(0, 1, size=(3, 3))
        km = kernel_matrix(a, b, spec)
        for i in range(4):
            for j in range(3):
                naive = kernel_entry(a[i], b[j], spec)
                assert km.values[i, j] == pytest.approx(naive, abs=1e-12)

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(0, 1, size=(12, 5))
        km = kernel_matrix(samples, samples, SPEC5)
        assert np.all(km.values >= 0.0)
        assert np.all(km.values <= 1.0)

    def test_custom_ids(self):
        a = np.array([[0.1, 0.4]])
        km = kernel_matrix(a, a, FeatureMapSpec(2), row_ids=["s9"], col_ids=["s9"])
        assert km.row_ids == ["s9"]


class TestCsvExport:
    def test_round_trips_at_full_precision(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0, 1, size=(3, 2))
        km = kernel_matrix(samples, samples, FeatureMapSpec(2), row_ids=[7, 8, 9],
                           col_ids=[7, 8, 9])
        text = kernel_to_csv(km)
        lines = text.strip().split("\n")
        assert lines[0] == "id,7,8,9"
        parsed = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        np.testing.assert_array_equal(parsed, km.values)

    def test_rectangular_ids(self):
        # test x train layout: the header holds the column ids, each row starts with its id
        rng = np.random.default_rng(7)
        rows, cols = rng.uniform(0, 1, size=(2, 2)), rng.uniform(0, 1, size=(3, 2))
        km = kernel_matrix(rows, cols, FeatureMapSpec(2), row_ids=[3, 4], col_ids=[7, 8, 9])
        lines = kernel_to_csv(km).strip().split("\n")
        assert lines[0] == "id,7,8,9"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, km.values)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(0, 1, size=(4, 2))
        km1 = kernel_matrix(samples, samples, FeatureMapSpec(2))
        km2 = kernel_matrix(samples.copy(), samples.copy(), FeatureMapSpec(2))
        assert kernel_to_csv(km1) == kernel_to_csv(km2)
