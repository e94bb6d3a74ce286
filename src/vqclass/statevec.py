"""Dense statevector kernel, and the package's size limits.

Qubit 0 is the most significant bit of the basis-state index: |b0 b1 ... b_{n-1}> lives
at index ``int("b0b1...", 2)``, and bit strings are always written with qubit 0 leftmost.
``apply_block`` applies one real 2^k x 2^k matrix to k adjacent qubits of amplitudes held
batch-last, with no 2^n x 2^n matrix formed; ``row_blocks`` cuts every batch into blocks.
Its limits: the qubit cap, block size, product width, memory ceiling and charge per count."""

from __future__ import annotations

import os

import numpy as np

MAX_QUBITS = 24
# row_blocks keeps a block within this many bytes, so vqc.p_ad's block and its
# gates' scratch stay in L2 through the whole ansatz; of 64 KiB to 2 MiB (130
# rows), 512 KiB and 1 MiB were fastest at n = 12, with and without
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


def row_blocks(n_rows: int, row_bytes: int, least: int = 1) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows of ``row_bytes`` each: the fewest blocks of at
    most max(least, BLOCK_BYTES // row_bytes) rows, their sizes as even as possible (they
    differ by at most one), none under ``least`` rows unless all the rows are; so a block
    can hold up to 2 * least - 1 rows when there are few. 0 rows give no blocks."""
    most = max(least, BLOCK_BYTES // row_bytes)
    count = min(-(-n_rows // most), max(1, n_rows // least))
    return [slice(i * n_rows // count, (i + 1) * n_rows // count) for i in range(count)]


def apply_block(matrix: np.ndarray, amplitudes: np.ndarray, qubit: int, out: np.ndarray) -> None:
    """Write to ``out``, a C-contiguous complex array of their size, the C-contiguous complex
    amplitudes (2^n, ...) with the real 2^k x 2^k ``matrix`` (basis order |0..0> to |1..1>,
    ``qubit`` leftmost) applied to qubits [qubit, qubit + k), as float64 products on the
    arrays' float views, ``GEMM_WIDTH`` floats wide at most, so each batch entry rounds as it
    would alone. A real matrix acts alike on the real and imaginary parts, which the float
    views interleave, so this takes half the multiplies of a complex product."""
    shape = (1 << qubit, len(matrix), -1)
    src, dst = amplitudes.view(np.float64).reshape(shape), out.view(np.float64).reshape(shape)
    for first in range(0, src.shape[-1], GEMM_WIDTH):
        part = slice(first, first + GEMM_WIDTH)
        np.matmul(matrix, src[..., part], out=dst[..., part])
