"""Kernel tests: fidelity entries, Gram-matrix properties, CSV export."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from blas import COMMITTED_CORE, openblas_core
from vqclass import cli
from vqclass.cli import _write_lines
from vqclass.errors import BindingError, EncodingError
from vqclass.featmap import FeatureMapSpec, encode
from vqclass.prep import load_csv
from vqclass.qkernel import kernel_matrix, kernel_to_csv
from vqclass.statevec import BLOCK_BYTES, row_blocks
from vqclass.synth import make_blobs, write_labeled_csv

SPEC5 = FeatureMapSpec(5, 1, "full")


def kernel(samples_a, samples_b, spec):
    """The kernel matrix of two batches of feature vectors, each encoded once."""
    return kernel_matrix(encode(samples_a, spec), encode(samples_b, spec))


def csv_text(values, row_ids, col_ids):
    """The whole CSV text: the lines ``kernel_to_csv`` yields for ``values`` as one
    block, each newline-terminated."""
    return "".join(f"{line}\n" for line in kernel_to_csv([values], row_ids, col_ids))


def per_value_text(values, row_ids, col_ids):
    """The reference CSV text: every value written alone as f"{v:.17g}"."""
    lines = [",".join(["id", *map(str, col_ids)])] + [
        ",".join([str(i), *(f"{v:.17g}" for v in row)])
        for i, row in zip(row_ids, np.asarray(values).tolist())
    ]
    return "".join(f"{line}\n" for line in lines)


def assert_per_value_digits(values):
    """``kernel_to_csv`` writes ``per_value_text``; a failure names the first differing cell."""
    rows, cols = np.shape(values)
    row_ids, col_ids = list(range(rows)), [f"c{j}" for j in range(cols)]
    got = csv_text(values, row_ids, col_ids).split("\n")
    expected = per_value_text(values, row_ids, col_ids).split("\n")
    assert len(got) == len(expected)
    for line, want in zip(got, expected):
        assert line.split(",") == want.split(",")


def kernel_entry(x, x_other, spec):
    """One fidelity, computed as a 1 x 1 kernel matrix."""
    return kernel(np.array([x]), np.array([x_other]), spec)[0, 0]


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
        km = kernel(samples, samples, SPEC5)
        assert np.max(np.abs(km - km.T)) < 1e-10
        assert np.max(np.abs(np.diag(km) - 1.0)) < 1e-10
        assert np.linalg.eigvalsh(km).min() >= -1e-8

    def test_single_sample(self):
        km = kernel(np.array([[0.3, 0.7]]), np.array([[0.3, 0.7]]), FeatureMapSpec(2))
        np.testing.assert_allclose(km, [[1.0]], atol=1e-12)

    def test_rectangular_shape(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, size=(3, 2))
        b = rng.uniform(0, 1, size=(2, 2))
        assert kernel(a, b, FeatureMapSpec(2)).shape == (3, 2)

    def test_cached_path_equals_naive_per_pair(self):
        rng = np.random.default_rng(3)
        spec = FeatureMapSpec(3, 1, "full")
        a = rng.uniform(0, 1, size=(4, 3))
        b = rng.uniform(0, 1, size=(3, 3))
        km = kernel(a, b, spec)
        for i in range(4):
            for j in range(3):
                naive = kernel_entry(a[i], b[j], spec)
                assert km[i, j] == pytest.approx(naive, abs=1e-12)

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        samples = rng.uniform(0, 1, size=(12, 5))
        km = kernel(samples, samples, SPEC5)
        assert np.all(km >= 0.0)
        assert np.all(km <= 1.0)

    def test_custom_ids(self):
        a = np.array([[0.1, 0.4]])
        km = kernel(a, a, FeatureMapSpec(2))
        assert csv_text(km, ["s9"], ["s9"]).startswith("id,s9\ns9,")


class TestCsvExport:
    def test_round_trips_at_full_precision(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0, 1, size=(3, 2))
        km = kernel(samples, samples, FeatureMapSpec(2))
        text = csv_text(km, [7, 8, 9], [7, 8, 9])
        lines = text.strip().split("\n")
        assert lines[0] == "id,7,8,9"
        parsed = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        np.testing.assert_array_equal(parsed, km)

    def test_rectangular_ids(self):
        # test x train layout: the header holds the column ids, each row starts with its id
        rng = np.random.default_rng(7)
        rows, cols = rng.uniform(0, 1, size=(2, 2)), rng.uniform(0, 1, size=(3, 2))
        km = kernel(rows, cols, FeatureMapSpec(2))
        lines = csv_text(km, [3, 4], [7, 8, 9]).strip().split("\n")
        assert lines[0] == "id,7,8,9"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, km)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(0, 1, size=(4, 2))
        km1 = kernel(samples, samples, FeatureMapSpec(2))
        km2 = kernel(samples.copy(), samples.copy(), FeatureMapSpec(2))
        ids = list(range(4))
        assert csv_text(km1, ids, ids) == csv_text(km2, ids, ids)

    def test_same_digits_as_per_value_format(self):
        # one format string per row writes each value as f"{v:.17g}" would
        rng = np.random.default_rng(8)
        values = np.vstack([rng.uniform(0, 1, size=(3, 4)), [[0.0, 1.0, 0.5, 1e-300]]])
        text = csv_text(values, [0, 1, 2, 3], [4, 5, 6, 7])
        expected = [",".join(["id", "4", "5", "6", "7"])] + [
            ",".join([str(i)] + [f"{v:.17g}" for v in row]) for i, row in enumerate(values)
        ]
        assert text == "\n".join(expected) + "\n"

    def test_write_holds_one_row_not_the_file(self, tmp_path):
        # rows are formatted and written one at a time, never joined into the file's text
        values = np.random.default_rng(9).uniform(0, 1, size=(600, 600))
        ids = list(range(600))
        path = tmp_path / "kernel.csv"
        tracemalloc.start()
        try:
            _write_lines(path, kernel_to_csv([values], ids, ids))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 6 << 20
        assert peak < size / 10, (peak, size)
        assert path.read_text(encoding="utf-8") == csv_text(values, ids, ids)

    @pytest.mark.parametrize("n_rows, n_cols", [(3, 4), (5, 4), (4, 3), (4, 5)])
    def test_ids_must_match_the_values(self, n_rows, n_cols):
        values = np.full((4, 4), 0.5)
        with pytest.raises(BindingError, match=r"shape \(4, 4\).*"
                           rf"{n_rows} row ids and {n_cols} column ids"):
            csv_text(values, list(range(n_rows)), list(range(n_cols)))


def kernel_run(tmp_path, n_rows, n_qubits, test_fraction):
    """prep on ``n_rows`` blobs rows at ``n_qubits`` qubits: the run's config and
    input table."""
    features, labels = make_blobs(n_rows, n_qubits, seed=n_rows)
    write_labeled_csv(str(tmp_path / "data.csv"), features, labels)
    config = {"data": {"path": str(tmp_path / "data.csv"), "label_column": "class",
                       "positive_label": "pos"},
              "prep": {"pca_k": n_qubits, "test_fraction": test_fraction},
              "output_dir": str(tmp_path / "run")}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["prep", "--config", str(tmp_path / "config.json")]) == 0
    data = load_csv(str(tmp_path / "data.csv"), "class", "pos")
    return cli.load_config(str(tmp_path / "config.json")), data


class TestStreamedExport:
    """The kernel verb computes and writes one row block at a time, with the bytes
    of one whole product."""

    @pytest.mark.parametrize("rows, cols", [(16, 16), (17, 16), (1, 16), (17, 40)])
    def test_blocks_keep_the_bytes_of_one_product(self, rows, cols):
        # at n = 12 a block is at most 8 rows: an exact multiple, one row over (three even
        # blocks), a single row, more columns than rows
        spec = FeatureMapSpec(12, 1, "full")
        rng = np.random.default_rng(rows + cols)
        a, b = (encode(rng.uniform(0, 1, size=(size, 12)), spec) for size in (rows, cols))
        blocks = row_blocks(rows, 16 * max(1 << 12, cols), least=2)  # as cmd_kernel cuts them
        assert [s.stop - s.start for s in blocks] == {16: [8, 8], 17: [5, 6, 6], 1: [1]}[rows]
        row_ids, col_ids = list(range(rows)), list(range(cols))
        streamed = "".join(f"{line}\n" for line in kernel_to_csv(
            (kernel_matrix(a[s], b) for s in blocks), row_ids, col_ids))
        assert streamed == csv_text(kernel_matrix(a, b), row_ids, col_ids), (
            f"blocks round apart from the whole product on OpenBLAS core {openblas_core()}; "
            f"runs/ were made on {COMMITTED_CORE}")

    @pytest.mark.parametrize("n_qubits, n_cols", [(1, 1), (8, 900), (12, 130), (16, 5000)])
    def test_row_blocks_cover_the_rows_with_no_lone_row(self, n_qubits, n_cols):
        step = BLOCK_BYTES // (16 * max(1 << n_qubits, n_cols))
        for n_rows in range(1, 300):
            blocks = row_blocks(n_rows, 16 * max(1 << n_qubits, n_cols), least=2)
            assert [s.start for s in blocks] == [0] + [s.stop for s in blocks[:-1]]
            assert blocks[-1].stop == n_rows
            sizes = [s.stop - s.start for s in blocks]
            assert min(sizes) >= min(2, n_rows)
            assert max(sizes) <= max(2, step) + 1

    @pytest.mark.parametrize("n_rows", [18, 19])  # 16 and 17 training rows, 2 test rows
    def test_verb_writes_the_bytes_of_one_product(self, tmp_path, n_rows):
        cfg, data = kernel_run(tmp_path, n_rows, 12, 1 / n_rows)  # 1 test row per class
        assert cli.main(["kernel", "--config", str(tmp_path / "config.json")]) == 0
        _, train, test = cli._load_stage(cfg, cli._fit(cfg, data))
        assert (len(train.x), len(test.x)) == (n_rows - 2, 2)
        train_states = encode(train.x, cfg.vqc.feature_map)
        for name, split in (("kernel_train.csv", train), ("kernel_test.csv", test)):
            whole = kernel_matrix(encode(split.x, cfg.vqc.feature_map), train_states)
            want = csv_text(whole, split.ids.tolist(), train.ids.tolist())
            assert (tmp_path / "run" / name).read_text(encoding="utf-8") == want, (
                f"{name} differs, on OpenBLAS core {openblas_core()}; "
                f"runs/ were made on {COMMITTED_CORE}")

    def test_verb_holds_no_kernel_sized_array(self, tmp_path):
        cfg, data = kernel_run(tmp_path, 1600, 4, 0.25)
        _, train, _ = cli._load_stage(cfg, cli._fit(cfg, data))  # 1,200 train, 400 test rows
        states = len(train.x) * 16 << 4  # the training states, held whole
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli.cmd_kernel(cfg, cli._fit(cfg, data))  # main fits before the verb runs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - states < len(train.x) ** 2 * 8 / 4


def _neighbours(values):
    """Each value with the doubles one ulp below and above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


class TestExactDigits:
    """The chunked formatter writes what f"{v:.17g}" writes for each value alone."""

    def test_edge_values(self):
        values = np.concatenate([
            _neighbours([0.0, 1.0, 0.5, 0.125, 1e-4, 1e-3, 1e-2, 0.1]),
            [1e-5, 1e-6, 1e-300, 5e-324, -2.2250738585072014e-308, -0.0, np.nan, np.inf, -np.inf,
             -0.25, 1e300],
        ])
        assert_per_value_digits(values.reshape(1, -1))
        assert_per_value_digits(values.reshape(-1, 1))

    def test_seeded_near_ties(self):
        # decimals halfway between two 17-digit ones, their neighbours, exact
        # binary ties (v * 10^k ends in .5 exactly) and values spread over decades
        rng = np.random.default_rng(11)
        near = [float(f"0.{'0' * (i % 4)}{d:017d}5")
                for i, d in enumerate(rng.integers(10**16, 10**17, 8000).tolist())]
        k = rng.integers(17, 21, 8000)  # odd multiples of 2^-(k + 1) in the decade of 10^k
        scale = 2.0 ** (k + 1)
        ties = (np.floor(rng.uniform(0.1, 1.0, 8000) * 10.0 ** (17 - k) * scale) // 2 * 2 + 1) / scale
        spread = rng.random(60000) ** 4
        values = np.concatenate([_neighbours(near), ties, spread])
        assert_per_value_digits(values.reshape(-1, 100))

    def test_transposed_and_float32_input(self):
        values = np.random.default_rng(12).random((7, 5)) ** 3
        assert_per_value_digits(values.T)
        assert_per_value_digits(values.astype(np.float32))

    # kernel_to_csv formats BLOCK_BYTES // 128 values a pass
    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (2, BLOCK_BYTES // 128 + 1),
                                       (BLOCK_BYTES // 128 // 50 + 3, 50)])
    def test_chunk_boundaries(self, shape):
        assert_per_value_digits(np.random.default_rng(13).random(shape) ** 2)

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
                  elements=st.floats(allow_nan=True, allow_infinity=True)
                  | st.floats(1e-4, 1.0, exclude_max=True)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_float_matrix(self, values):
        assert_per_value_digits(values)
