"""Exact pairwise state-overlap (fidelity) kernels of encoded states.

Entry (i, j) is |<phi(b_j)|phi(a_i)>|^2 of two batches of states from
``featmap.encode``, so a same-set Gram matrix is symmetric, unit-diagonal,
and positive semidefinite up to float roundoff. The caller encodes each
batch once; one matrix product gives all overlaps, and the CSV export
yields one row's line at a time.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def kernel_matrix(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Fidelity of each row of ``states_a`` against each row of ``states_b``,
    both of shape (N, 2^n): an (|A|, |B|) array clipped into [0, 1]."""
    overlaps = states_a @ states_b.conj().T
    return np.clip(np.abs(overlaps) ** 2, 0.0, 1.0)


def kernel_to_csv(values: np.ndarray, row_ids: Sequence, col_ids: Sequence) -> Iterator[str]:
    """The CSV lines, without newlines: the id header, then each row's id and
    17-significant-digit values, formatted only when the row is asked for."""
    yield "id," + ",".join(str(c) for c in col_ids)
    row_format = ",%.17g" * values.shape[1]
    for rid, row in zip(row_ids, values):
        yield str(rid) + row_format % tuple(row.tolist())
