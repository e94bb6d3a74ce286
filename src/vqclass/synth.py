"""Synthetic dataset generators for demos, benchmarks, and tests."""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

_TASK_FEATURES = (
    "air_time",
    "paper_time",
    "mean_speed",
    "pressure_mean",
    "pressure_var",
    "jerk",
    "stroke_count",
)


def make_blobs(
    n_samples: int = 40,
    n_features: int = 5,
    separation: float = 3.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-variance Gaussian blobs whose means are ``separation``
    standard deviations apart along a random direction."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n_features)
    direction /= np.linalg.norm(direction)
    offset = 0.5 * separation * direction
    n_pos = n_samples // 2
    n_neg = n_samples - n_pos
    x_neg = rng.normal(size=(n_neg, n_features)) - offset
    x_pos = rng.normal(size=(n_pos, n_features)) + offset
    features = np.vstack([x_neg, x_pos])
    labels = np.concatenate([np.zeros(n_neg, dtype=np.int64), np.ones(n_pos, dtype=np.int64)])
    return features, labels


def make_handwriting_table(
    n_samples: int = 174,
    n_tasks: int = 4,
    signal: float = 1.1,
    seed: int = 1,
) -> tuple[list[str], list[list[str]]]:
    """A handwriting-features-style table: per-task kinematic columns on
    varied scales, one categorical column, and a two-valued class column
    (``P`` positive / ``H`` control). Moderately separable by design.

    Returns (column names, rows of strings) ready for CSV writing.
    """
    rng = np.random.default_rng(seed)
    n_pos = (n_samples + 1) // 2
    labels = np.concatenate(
        [np.ones(n_pos, dtype=np.int64), np.zeros(n_samples - n_pos, dtype=np.int64)]
    )
    labels = labels[rng.permutation(n_samples)]

    columns: list[str] = []
    data_cols: list[np.ndarray] = []
    for task in range(1, n_tasks + 1):
        for base in _TASK_FEATURES:
            columns.append(f"{base}{task}")
            informative = rng.random() < 0.45
            shift = signal * rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0)) if informative else 0.0
            scale = rng.uniform(0.5, 40.0)
            col = rng.normal(size=n_samples) + shift * (2.0 * labels - 1.0) / 2.0
            data_cols.append(scale * col)

    sexes = np.where(rng.random(n_samples) < 0.5, "F", "M")
    header = ["sex", *columns, "class"]
    rows = []
    for i in range(n_samples):
        row = [str(sexes[i])]
        row.extend(repr(float(col[i])) for col in data_cols)
        row.append("P" if labels[i] == 1 else "H")
        rows.append(row)
    return header, rows


def write_labeled_csv(path: str, features: np.ndarray, labels: np.ndarray) -> None:
    """Write a numeric feature matrix as columns f0, f1, ... plus a
    ``class`` column holding ``pos`` for label 1 and ``neg`` otherwise."""
    header = [f"f{j}" for j in range(features.shape[1])] + ["class"]
    rows = [[*(repr(float(v)) for v in row), "pos" if lab == 1 else "neg"]
            for row, lab in zip(features, labels)]
    write_table_csv(path, header, rows)


def write_table_csv(path: str, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Write pre-stringified rows as a headered CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        writer.writerows(rows)
