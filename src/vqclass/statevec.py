"""Dense statevector kernel: one 2x2 matrix applied to one qubit, in place.

Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. ``apply_single``
mutates the amplitude buffer through reshaped strided views, so a gate
costs O(2^n) and no 2^n x 2^n matrix is ever formed. It accepts
arbitrary leading batch axes, and each batch entry evolves bitwise as it
would alone. The feature map's H layers and the ansatz's fused RZ RY
rotations run through it; the ansatz's CY/CZ blocks are gathers
(``ansatz.block_gather``) and the feature map's phases a closed form.
"""

from __future__ import annotations

import math

import numpy as np

MAX_QUBITS = 24

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_H = 1.0 / math.sqrt(2.0)
HADAMARD: Matrix2 = ((_H, _H), (_H, -_H))


def _single_views(amps: np.ndarray, n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # split the last axis as (2^q, 2, 2^(n-1-q)); the middle axis is qubit q
    view = amps.reshape(amps.shape[:-1] + (1 << q, 2, 1 << (n - 1 - q)))
    return view[..., 0, :], view[..., 1, :]


def apply_single(amplitudes: np.ndarray, n_qubits: int, qubit: int, u: Matrix2) -> None:
    """Apply the 2x2 matrix ``u`` (rows and columns in |0>, |1> order) to
    ``qubit``, in place, for amplitudes of shape (..., 2^n)."""
    a0, a1 = _single_views(amplitudes, n_qubits, qubit)
    b0 = u[0][0] * a0 + u[0][1] * a1
    a1 *= u[1][1]
    a1 += u[1][0] * a0
    a0[...] = b0
