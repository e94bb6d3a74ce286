"""Tabular ingestion and preprocessing: CSV loading, one-hot encoding,
PCA down to the qubit count, min-max normalization, stratified splitting.

``load_csv`` returns one ``Table``: the one-hot encoded features, the 0/1
labels, the feature names and the sha256 of the file's bytes. A split is
a pair of sorted row-index arrays into that table; a row's index is its
sample id in every artifact.

The fitted PCA and min-max are dicts of arrays, keyed as in model.json, fit
on training rows only; applying them to test rows leaves them unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import io
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, shown

MAX_CATEGORIES = 64


class Table(NamedTuple):
    """A one-hot encoded input table with binary labels (positive class = 1)."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    sha256: str  # of the file's bytes


def load_csv(path: str, label_column: str, positive_label: str) -> Table:
    """Read a comma-delimited UTF-8 table with a header row, one-hot
    encode it and hash the bytes it was parsed from, a leading byte-order
    mark included; the mark itself is not part of the first column's name.

    The label column must exist and hold exactly two distinct values,
    one of which is ``positive_label``. The first structural defect is
    reported with its 1-based data-row number.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read input file {path}: {exc}") from None
    # decoded in chunks, as a text-mode open would, so no decoded copy of the file is held
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    try:
        columns = next(reader)
        rows = list(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty (no header row)") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # e.g. a cell over the module's field size limit
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise DataError(f"{path}: repeated column names {shown(repeated)}")
    if label_column not in columns:
        raise DataError(f"{path}: label column {shown(label_column)} not among {shown(columns)}")
    width = len(columns)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    label_idx = columns.index(label_column)
    label_values = sorted({row[label_idx] for row in rows})
    if len(label_values) != 2:
        raise DataError(
            f"{path}: label column {shown(label_column)} has {len(label_values)} distinct "
            f"values {shown(label_values)}, expected exactly 2"
        )
    if positive_label not in label_values:
        raise DataError(
            f"{path}: positive label {shown(positive_label)} not among {shown(label_values)}"
        )
    try:
        encoded = one_hot_encode(columns, rows, label_column, positive_label)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return Table(*encoded, hashlib.sha256(raw).hexdigest())


def _try_numeric(name: str, values: list[str]) -> np.ndarray | None:
    """The column as float64 if every cell parses as a number, else None. A
    blank cell among cells that all parse raises DataError: a missing number,
    not a category."""
    try:
        return np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        pass
    filled = [v for v in values if v.strip()]
    if filled and len(filled) < len(values) and _try_numeric(name, filled) is not None:
        row = next(i for i, v in enumerate(values) if not v.strip())
        raise DataError(f"column {shown(name)} row {row + 1}: empty cell in a numeric column")
    return None


def one_hot_encode(
    columns: list[str], rows: list[list[str]], label_column: str, positive_label: str
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Features, 0/1 labels and feature names of a string table. Numeric
    columns pass through, and a blank or non-finite cell in one raises
    DataError; each non-numeric column expands into one 0/1 indicator column
    per distinct value, lexicographic order."""
    label_idx = columns.index(label_column)
    labels = np.array(
        [1 if row[label_idx] == positive_label else 0 for row in rows], dtype=np.int64
    )
    feature_cols: list[np.ndarray] = []
    feature_names: list[str] = []
    for j, name in enumerate(columns):
        if j == label_idx:
            continue
        values = [row[j] for row in rows]
        numeric = _try_numeric(name, values)
        if numeric is not None:
            if not np.all(np.isfinite(numeric)):
                bad = int(np.argmax(~np.isfinite(numeric)))
                raise DataError(
                    f"column {shown(name)} row {bad + 1}: non-finite value {shown(values[bad])}"
                )
            feature_cols.append(numeric)
            feature_names.append(name)
            continue
        categories = sorted(set(values))
        if len(categories) > MAX_CATEGORIES:
            raise DataError(
                f"column {shown(name)} has {len(categories)} distinct categories "
                f"(> {MAX_CATEGORIES}); is it a misdeclared numeric column?"
            )
        for cat in categories:
            feature_cols.append(np.array([v == cat for v in values], dtype=np.float64))
            feature_names.append(f"{name}={cat}")
    features = np.column_stack(feature_cols) if feature_cols else np.zeros((len(rows), 0))
    return features, labels, feature_names


def pca_fit(train_features: np.ndarray, k: int) -> dict:
    """Top-k principal directions of the training rows, via SVD: ``mean``
    (d,), orthonormal ``components`` (k, d) and ``explained_variance`` (k,).

    Sign convention: each component's largest-magnitude entry is made
    positive, so the decomposition is deterministic.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"expected a 2-D feature matrix, got shape {x.shape}")
    n, d = x.shape
    if not 1 <= k <= min(n, d):
        raise ConfigError(f"pca_k must be in [1, min(N, d)] = [1, {min(n, d)}], got {k}")
    mean = x.mean(axis=0)
    centered = x - mean
    if not np.any(np.abs(centered) > 0.0):
        raise DataError("PCA input has zero variance in every feature (all rows identical)")
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    explained = singular[:k] ** 2 / (n - 1) if n > 1 else np.zeros(k)
    return {"mean": mean, "components": components, "explained_variance": explained}


def pca_transform(pca: dict, features: np.ndarray) -> np.ndarray:
    """Project rows onto the fitted principal directions."""
    x = np.asarray(features, dtype=np.float64)
    return (x - pca["mean"]) @ pca["components"].T


def minmax_fit(train_features: np.ndarray) -> dict:
    """Per-feature ``min`` and ``max`` of the training rows."""
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ConfigError(f"expected a non-empty 2-D feature matrix, got shape {x.shape}")
    return {"min": x.min(axis=0), "max": x.max(axis=0)}


def minmax_transform(minmax: dict, features: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min), with x first clipped into [min, max].

    A degenerate feature (max == min on the training rows) maps to 0.0;
    out-of-range test values come out as exactly 0.0 or 1.0, so downstream
    angle encodings stay bounded. Clipping before the division keeps a
    tiny span from overflowing the quotient.
    """
    x = np.clip(np.asarray(features, dtype=np.float64), minmax["min"], minmax["max"])
    span = minmax["max"] - minmax["min"]
    safe = np.where(span > 0.0, span, 1.0)
    return np.where(span > 0.0, (x - minmax["min"]) / safe, 0.0)


def stratified_split(
    labels: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and test row indices: per-class shuffle then
    proportional allocation to the test split.

    Test size per class is round(count * fraction) (half rounds up) and
    at least 1; every class must keep at least one training sample.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    # not np.unique, which imports numpy.ma: about 16 ms of a fresh process
    classes = sorted(set(labels.tolist()))
    if len(classes) != 2:
        raise DataError(f"need exactly 2 classes to split, got {classes}")
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for cls in classes:
        members = np.flatnonzero(labels == cls)
        n_test = max(1, int(np.floor(members.size * test_fraction + 0.5)))
        if members.size - n_test < 1:
            raise DataError(
                f"class {cls} has {members.size} sample(s); cannot allocate "
                f"{n_test} test sample(s) and keep one for training"
            )
        perm = rng.permutation(members)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))
