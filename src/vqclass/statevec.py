"""Dense statevector kernel: one real 2^k x 2^k matrix applied to k adjacent qubits.

Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. ``apply_block`` runs a
gate as one stacked matrix product into a second buffer, so no 2^n x 2^n
matrix is ever formed. The matrix is real, so it acts alike on the real and
imaginary parts: the product runs in float64 on the complex arrays' float
views, whose last axis interleaves the two, at half the multiplies of a
complex product. Batch axes trail the amplitude axis, so a product on qubits
[q, q + k) is a stack of 2^q products whose rows run 2^(n-q-k) times twice
the batch long; ``apply_ansatz`` runs its RY rotation blocks through it on
``vqc.p_ad``'s row blocks of ``BLOCK_BYTES``, transposed, and swaps the
register's halves before the blocks that lie in its high half, so q stays
below about n / 2 and every product is wide. Real products at most
``GEMM_WIDTH`` floats wide round each batch entry as it would alone, at any
batch width. The module also holds the package's size limits: the qubit cap,
the row-block size, the product width, the memory ceiling and its count
charge."""

from __future__ import annotations

import os

import numpy as np

MAX_QUBITS = 24
# vqc.p_ad advances a batch in row blocks of about this many bytes, so a
# block and its gates' scratch stay in L2 through the whole ansatz; of 64 KiB
# to 2 MiB (130 rows), 512 KiB and 1 MiB were fastest at n = 12, with and without
# apply_ansatz's half-register swap: take the smaller
BLOCK_BYTES = 1 << 19
# apply_block runs its products at most this many floats wide. OpenBLAS keeps a GEMM
# with m n k <= 4 * 65536 on one thread (its default GEMM_MULTITHREAD_THRESHOLD), so an
# 8 x 8 x 4096 one, and its threaded kernels may round apart from that one: Nehalem's
# did on two threads, from 8192 floats on, where a block's products were threaded and a
# lone row's, narrower, were not. Capped, both take the same kernel on any thread count
GEMM_WIDTH = 4096

# A run holds about 145 B per SPSA iteration (the loss history, then
# loss_history.csv's lines and text) and 190-215 B per ansatz parameter (the
# vector, its Python floats, the light cone's cached layers, model.json's list
# and text) at its peak, by tracemalloc; spsa.maxiter and the parameter count
# are each charged this much a unit against physical_memory()
COUNT_BYTES = 256


def physical_memory() -> int:
    """Bytes of physical memory: the ceiling of every size the package checks."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def apply_block(matrix: np.ndarray, amplitudes: np.ndarray, qubit: int, out: np.ndarray) -> None:
    """Write to ``out``, a C-contiguous complex array of their size, the C-contiguous complex
    amplitudes (2^n, ...) with the real 2^k x 2^k ``matrix`` (basis order |0..0> to |1..1>,
    ``qubit`` leftmost) applied to qubits [qubit, qubit + k), as float64 products on the
    arrays' float views, ``GEMM_WIDTH`` floats wide at most."""
    shape = (1 << qubit, len(matrix), -1)
    src, dst = amplitudes.view(np.float64).reshape(shape), out.view(np.float64).reshape(shape)
    for first in range(0, src.shape[-1], GEMM_WIDTH):
        part = slice(first, first + GEMM_WIDTH)
        np.matmul(matrix, src[..., part], out=dst[..., part])
