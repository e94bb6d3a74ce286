"""Dense statevector kernel: one 2^k x 2^k matrix applied to k adjacent qubits.

Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. ``apply_block`` runs a
gate as one stacked matrix product into a second buffer, so no 2^n x 2^n
matrix is ever formed. Batch axes trail the amplitude axis, so a product on
qubits [q, q + k) runs rows 2^(n-q-k) times the batch long; ``apply_ansatz``
runs its fused rotation blocks through it on ``vqc.p_ad``'s row blocks of
``BLOCK_BYTES``, transposed and padded as ``padded_columns`` says so each
batch entry evolves bitwise as it would alone. The module also holds the
package's size limits: the qubit cap, the row-block size, the memory
ceiling and its count charge."""

from __future__ import annotations

import os

import numpy as np

MAX_QUBITS = 24
# vqc.p_ad advances a batch in row blocks of about this many bytes, so a
# block and its gates' scratch stay in L2 through the whole ansatz; of 64 KiB
# to 2 MiB (130 rows), 512 KiB and 1 MiB were fastest at n = 12: take the smaller
BLOCK_BYTES = 1 << 19

# A run holds about 145 B per SPSA iteration (the loss history, then
# loss_history.csv's lines and text) and 190-215 B per ansatz parameter (the
# vector, its Python floats, the light cone's cached layers, model.json's list
# and text) at its peak, by tracemalloc; spsa.maxiter and the parameter count
# are each charged this much a unit against physical_memory()
COUNT_BYTES = 256


def physical_memory() -> int:
    """Bytes of physical memory: the ceiling of every size the package checks."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def padded_columns(cols: int, n: int) -> int:
    """``cols`` rounded up to a multiple of min(8, rows of a ``BLOCK_BYTES`` block of
    n-qubit states), which never grows a block. BLAS rounds a column in an edge tile
    apart from one in a full tile; OpenBLAS 0.3.31's SkylakeX kernel rounded columns alike
    with counts padded to 4, 8 or 16, not to 1 or 2. From n = 13 on, blocks have one width."""
    align = min(8, max(1, BLOCK_BYTES >> (n + 4)))
    return -(-cols // align) * align


def apply_block(matrix: np.ndarray, amplitudes: np.ndarray, qubit: int, out: np.ndarray) -> None:
    """Write to ``out``, a C-contiguous complex array of their size, the C-contiguous
    amplitudes (2^n, ...) with the 2^k x 2^k ``matrix`` (basis order |0..0> to |1..1>,
    ``qubit`` leftmost) applied to qubits [qubit, qubit + k)."""
    shape = (1 << qubit, len(matrix), -1)
    np.matmul(matrix, amplitudes.reshape(shape), out=out.reshape(shape))
