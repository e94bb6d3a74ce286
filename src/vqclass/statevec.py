"""Dense statevector simulator with strided, matrix-free gate kernels.

Conventions
-----------
Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. Gate application
mutates the amplitude buffer in place via reshaped strided views, so
each gate costs O(2^n) and no 2^n x 2^n matrix is ever formed. Every
one-qubit gate (H, RY, RZ, P, or a caller's fused product of them) runs
through one kernel that applies a 2x2 matrix to one qubit; CX, CY and
CZ keep their own permutation and phase kernels. The kernels accept
arbitrary leading batch axes, which lets callers evolve many states at
once with bitwise-identical per-state results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

MAX_QUBITS = 24

_SINGLE_KINDS = frozenset({"H", "RY", "RZ", "P"})
_PAIR_KINDS = frozenset({"CX", "CY", "CZ"})
_ANGLED_KINDS = frozenset({"RY", "RZ", "P"})
GATE_KINDS = tuple(sorted(_SINGLE_KINDS | _PAIR_KINDS))

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubit(s), and an angle that is
    present exactly for the rotation/phase kinds RY, RZ, P."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind in _SINGLE_KINDS:
            arity = 1
        elif self.kind in _PAIR_KINDS:
            arity = 2
        else:
            raise ConfigError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ConfigError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ConfigError(f"{self.kind} qubit indices must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ConfigError(f"qubit indices must be non-negative, got {self.qubits}")
        if self.kind in _ANGLED_KINDS:
            if self.angle is None:
                raise ConfigError(f"{self.kind} requires an angle")
        elif self.angle is not None:
            raise ConfigError(f"{self.kind} takes no angle")


@dataclass(eq=False)
class StateVector:
    """Pure n-qubit state: 2^n complex amplitudes, unit norm."""

    n_qubits: int
    amplitudes: np.ndarray


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register, every angle bound."""

    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if max(op.qubits) >= self.n_qubits:
                raise ConfigError(
                    f"{op.kind} on qubits {op.qubits} exceeds register size {self.n_qubits}"
                )


def zero_state(n_qubits: int) -> StateVector:
    """All-qubits-|0> state. ``n_qubits`` capped at desk scale."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _single_views(amps: np.ndarray, n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # split the last axis as (2^q, 2, 2^(n-1-q)); the middle axis is qubit q
    view = amps.reshape(amps.shape[:-1] + (1 << q, 2, 1 << (n - 1 - q)))
    return view[..., 0, :], view[..., 1, :]


def _controlled_views(
    amps: np.ndarray, n: int, control: int, target: int
) -> tuple[np.ndarray, np.ndarray]:
    # returns the (control=1, target=0) and (control=1, target=1) slices
    p, q = (control, target) if control < target else (target, control)
    view = amps.reshape(
        amps.shape[:-1] + (1 << p, 2, 1 << (q - p - 1), 2, 1 << (n - 1 - q))
    )
    if control < target:
        return view[..., 1, :, 0, :], view[..., 1, :, 1, :]
    return view[..., 0, :, 1, :], view[..., 1, :, 1, :]


def _single_matrix(op: GateOp) -> Matrix2:
    """The 2x2 matrix of a one-qubit gate, rows and columns in |0>, |1> order."""
    if op.kind == "H":
        h = 1.0 / math.sqrt(2.0)
        return ((h, h), (h, -h))
    if op.kind == "P":
        return ((1.0, 0.0), (0.0, cmath.exp(1j * op.angle)))
    half = 0.5 * op.angle
    if op.kind == "RY":
        c, s = math.cos(half), math.sin(half)
        return ((c, -s), (s, c))
    phase = cmath.exp(-1j * half)  # RZ
    return ((phase, 0.0), (0.0, phase.conjugate()))


def apply_single(amplitudes: np.ndarray, n_qubits: int, qubit: int, u: Matrix2) -> None:
    """Apply the 2x2 matrix ``u`` to ``qubit``, in place, for amplitudes of
    shape (..., 2^n)."""
    a0, a1 = _single_views(amplitudes, n_qubits, qubit)
    b0 = u[0][0] * a0 + u[0][1] * a1
    a1 *= u[1][1]
    a1 += u[1][0] * a0
    a0[...] = b0


def apply_ops(amplitudes: np.ndarray, n_qubits: int, ops: Sequence[GateOp]) -> None:
    """Apply ``ops`` in order, in place, to amplitudes of shape (..., 2^n).

    Leading axes are treated as a batch; each batch entry evolves exactly
    as it would alone.
    """
    n = n_qubits
    for op in ops:
        if max(op.qubits) >= n:
            raise ConfigError(f"{op.kind} on qubits {op.qubits} exceeds register size {n}")
        kind = op.kind
        if kind in _SINGLE_KINDS:
            apply_single(amplitudes, n, op.qubits[0], _single_matrix(op))
        elif kind == "CX":
            c10, c11 = _controlled_views(amplitudes, n, *op.qubits)
            tmp = c10.copy()
            c10[...] = c11
            c11[...] = tmp
        elif kind == "CY":
            c10, c11 = _controlled_views(amplitudes, n, *op.qubits)
            tmp = c10.copy()
            c10[...] = -1j * c11
            c11[...] = 1j * tmp
        else:  # CZ
            _, c11 = _controlled_views(amplitudes, n, *op.qubits)
            c11 *= -1.0


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply a single gate in place; returns the same state."""
    apply_ops(state.amplitudes, state.n_qubits, (op,))
    return state


def run_circuit(circuit: Circuit) -> StateVector:
    """Advance |0...0> through the circuit."""
    state = zero_state(circuit.n_qubits)
    apply_ops(state.amplitudes, circuit.n_qubits, circuit.ops)
    return state
