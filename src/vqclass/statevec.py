"""Dense statevector kernel: one 2x2 matrix applied to one qubit, in place.

Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. ``apply_single``
mutates the amplitude buffer through reshaped strided views and writes
its temporaries to one scratch buffer of the same size, so a gate costs
O(2^n) and no 2^n x 2^n matrix is ever formed. Batch axes trail the
amplitude axis, so a gate on qubit q runs inner loops 2^(n-1-q) times the
batch long, and each batch entry evolves bitwise as it would alone;
``vqc.p_ad`` runs the ansatz's fused RZ RY rotations through it on
transposed row blocks of ``BLOCK_BYTES``. The module also holds the
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

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def physical_memory() -> int:
    """Bytes of physical memory: the ceiling of every size the package checks."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def apply_single(amplitudes: np.ndarray, qubit: int, u: Matrix2, scratch: np.ndarray) -> None:
    """Apply the 2x2 matrix ``u`` (rows and columns in |0>, |1> order) to
    ``qubit``, in place, for C-contiguous amplitudes of shape (2^n, ...).
    The gate's temporaries go to ``scratch``, a C-contiguous complex array
    of the same size."""
    # split as (2^q, 2, 2^(n-1-q) * batch); the middle axis is qubit q
    view = amplitudes.reshape(1 << qubit, 2, -1)
    a0, a1 = view[:, 0], view[:, 1]
    t0, t1 = scratch.reshape((2,) + a0.shape)
    # keep each product's operand order: scalar*array and array*scalar round apart
    np.multiply(u[1][0], a0, out=t1)  # a0's share of the new a1, before a0 changes
    np.multiply(u[0][0], a0, out=a0)
    a0 += np.multiply(u[0][1], a1, out=t0)
    a1 *= u[1][1]
    a1 += t1
