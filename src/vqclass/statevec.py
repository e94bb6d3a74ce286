"""Dense statevector kernel: one 2x2 matrix applied to one qubit, in place.

Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. ``apply_single``
mutates the amplitude buffer through reshaped strided views and writes
its temporaries to one scratch buffer of the same size, so a gate costs
O(2^n) and no 2^n x 2^n matrix is ever formed. It accepts arbitrary
leading batch axes, and each batch entry evolves bitwise as it would
alone; ``vqc.p_ad`` relies on that to run a batch in row blocks of
``BLOCK_BYTES``. The feature map's H layers and the ansatz's fused RZ RY
rotations run through it; the ansatz's CY/CZ blocks are gathers
(``ansatz.block_gather``) and the feature map's phase is built by doubling
(``featmap._diagonal``). The module also holds the package's size limits:
the qubit cap, the row-block size, the memory ceiling and its count charge.
"""

from __future__ import annotations

import math
import os

import numpy as np

MAX_QUBITS = 24
# vqc.p_ad advances a batch in row blocks of about this many bytes, so a
# block and its gates' scratch stay in L2 through the whole ansatz; of the
# sizes timed (64 KiB to 1 MiB, n = 8 and 12), 256 KiB was fastest at n = 12
BLOCK_BYTES = 1 << 18

# A run holds about 145 B per SPSA iteration (the loss history, then
# loss_history.csv's lines and text) and 190-215 B per ansatz parameter (the
# vector, its Python floats, the light cone's cached layers, model.json's list
# and text) at its peak, by tracemalloc; spsa.maxiter and the parameter count
# are each charged this much a unit against physical_memory()
COUNT_BYTES = 256

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_H = 1.0 / math.sqrt(2.0)
HADAMARD: Matrix2 = ((_H, _H), (_H, -_H))


def physical_memory() -> int:
    """Bytes of physical memory: the ceiling of every size the package checks."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def apply_single(
    amplitudes: np.ndarray, n_qubits: int, qubit: int, u: Matrix2, scratch: np.ndarray | None = None
) -> None:
    """Apply the 2x2 matrix ``u`` (rows and columns in |0>, |1> order) to
    ``qubit``, in place, for C-contiguous amplitudes of shape (..., 2^n).
    The gate's temporaries go to ``scratch``, a C-contiguous complex array
    of the same shape, allocated here if not given."""
    # split the last axis as (2^q, 2, 2^(n-1-q)); the middle axis is qubit q
    view = amplitudes.reshape(amplitudes.shape[:-1] + (1 << qubit, 2, 1 << (n_qubits - 1 - qubit)))
    a0, a1 = view[..., 0, :], view[..., 1, :]
    if scratch is None:
        scratch = np.empty(amplitudes.shape, dtype=np.complex128)
    b0, t = scratch.reshape((2,) + a0.shape)
    np.multiply(u[0][0], a0, out=b0)
    np.multiply(u[0][1], a1, out=t)
    b0 += t
    a1 *= u[1][1]
    np.multiply(u[1][0], a0, out=t)
    a1 += t
    a0[...] = b0
