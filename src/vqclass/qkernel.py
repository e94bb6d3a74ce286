"""Exact pairwise state-overlap (fidelity) kernels from the feature map.

Entries are |<phi(x')|phi(x)>|^2 computed from full statevectors, so a
same-set Gram matrix is symmetric, unit-diagonal, and positive
semidefinite up to float roundoff. Each side is encoded with one batched
``encode`` call, and all overlaps come from one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .featmap import DataMap, FeatureMapSpec, encode


@dataclass
class KernelMatrix:
    """Fidelity Gram matrix with row/column sample identifiers."""

    values: np.ndarray
    row_ids: list
    col_ids: list


def kernel_matrix(
    samples_a: np.ndarray,
    samples_b: np.ndarray,
    spec: FeatureMapSpec,
    data_map: DataMap | None = None,
    row_ids: Sequence | None = None,
    col_ids: Sequence | None = None,
) -> KernelMatrix:
    """Entry (i, j) = fidelity of samples_a[i] against samples_b[j].

    Each sample is encoded exactly once; the |A| x |B| matrix of complex
    overlaps is then formed in a single product.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    states_a = encode(a, spec, data_map)
    if b is a or (b.shape == a.shape and np.array_equal(b, a)):
        states_b = states_a
    else:
        states_b = encode(b, spec, data_map)
    overlaps = states_a @ states_b.conj().T
    values = np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)
    return KernelMatrix(
        values,
        list(row_ids) if row_ids is not None else list(range(a.shape[0])),
        list(col_ids) if col_ids is not None else list(range(b.shape[0])),
    )


def kernel_to_csv(kernel: KernelMatrix) -> str:
    """CSV text with id headers and 17-significant-digit values."""
    lines = ["id," + ",".join(str(c) for c in kernel.col_ids)]
    for rid, row in zip(kernel.row_ids, kernel.values):
        lines.append(str(rid) + "," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
