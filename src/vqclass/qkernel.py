"""Exact pairwise state-overlap (fidelity) kernels of encoded states.

Entry (i, j) is |<phi(b_j)|phi(a_i)>|^2 of two batches of states from
``featmap.encode``, so a same-set Gram matrix is symmetric, unit-diagonal,
and positive semidefinite up to float roundoff. The caller encodes each
batch once; all overlaps of two batches come from one matrix product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def kernel_matrix(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Fidelity of each row of ``states_a`` against each row of ``states_b``,
    both of shape (N, 2^n): an (|A|, |B|) array clipped into [0, 1]."""
    overlaps = states_a @ states_b.conj().T
    return np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)


def kernel_to_csv(values: np.ndarray, row_ids: Sequence, col_ids: Sequence) -> str:
    """CSV text with id headers and 17-significant-digit values, formatted
    one row at a time."""
    row_format = ",%.17g" * values.shape[1]
    lines = ["id," + ",".join(str(c) for c in col_ids)]
    lines.extend(str(rid) + row_format % tuple(row.tolist()) for rid, row in zip(row_ids, values))
    return "\n".join(lines) + "\n"
