"""Dense statevector simulator with strided, matrix-free gate kernels.

Conventions
-----------
Qubit 0 is the most significant bit of the basis-state index: the basis
state |b0 b1 ... b_{n-1}> lives at index ``int("b0b1...", 2)``, and bit
strings are always written with qubit 0 leftmost. Gate application
mutates the amplitude buffer in place via reshaped strided views, so
each gate costs O(2^n) and no 2^n x 2^n matrix is ever formed. The
kernels accept arbitrary leading batch axes, which lets callers evolve
many states at once with bitwise-identical per-state results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import BindingError, ConfigError

MAX_QUBITS = 24

_SINGLE_KINDS = frozenset({"H", "RY", "RZ", "P"})
_PAIR_KINDS = frozenset({"CX", "CY", "CZ"})
_ANGLED_KINDS = frozenset({"RY", "RZ", "P"})
GATE_KINDS = tuple(sorted(_SINGLE_KINDS | _PAIR_KINDS))


@dataclass(frozen=True)
class ParamSlot:
    """Symbolic angle bound to entry ``index`` of the parameter vector."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigError(f"parameter slot index must be non-negative, got {self.index}")


Angle = Union[float, ParamSlot]


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubit(s), and an optional angle.

    The angle may be a bound float or a parameter slot; it is present
    exactly for the rotation/phase kinds RY, RZ, P.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: Angle | None = None

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

    @property
    def is_bound(self) -> bool:
        return not isinstance(self.angle, ParamSlot)


@dataclass(eq=False)
class StateVector:
    """Pure n-qubit state: 2^n complex amplitudes, unit norm."""

    n_qubits: int
    amplitudes: np.ndarray


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register.

    ``n_param_slots`` declares how many parameter values a binding must
    supply; executable only once every parameter slot is bound.
    """

    n_qubits: int
    ops: tuple[GateOp, ...]
    n_param_slots: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if max(op.qubits) >= self.n_qubits:
                raise ConfigError(
                    f"{op.kind} on qubits {op.qubits} exceeds register size {self.n_qubits}"
                )
            if isinstance(op.angle, ParamSlot) and op.angle.index >= self.n_param_slots:
                raise ConfigError(f"parameter slot {op.angle.index} outside declared table")


def zero_state(n_qubits: int) -> StateVector:
    """All-qubits-|0> state. ``n_qubits`` capped at desk scale."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _resolve_angle(angle: Angle | None, param_values: Sequence[float]) -> float:
    if isinstance(angle, ParamSlot):
        if angle.index >= len(param_values):
            raise BindingError(f"parameter slot {angle.index} is unbound")
        return float(param_values[angle.index])
    return float(angle)  # type: ignore[arg-type]


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


def apply_ops(
    amplitudes: np.ndarray,
    n_qubits: int,
    ops: Sequence[GateOp],
    param_values: Sequence[float] = (),
) -> None:
    """Apply ``ops`` in order, in place, to amplitudes of shape (..., 2^n).

    Leading axes are treated as a batch; each batch entry evolves exactly
    as it would alone.
    """
    n = n_qubits
    for op in ops:
        if max(op.qubits) >= n:
            raise ConfigError(f"{op.kind} on qubits {op.qubits} exceeds register size {n}")
        kind = op.kind
        if kind == "H":
            a0, a1 = _single_views(amplitudes, n, op.qubits[0])
            b0 = a0.copy()
            h = 1.0 / np.sqrt(2.0)
            a0[...] = h * (b0 + a1)
            a1[...] = h * (b0 - a1)
        elif kind == "RY":
            half = 0.5 * _resolve_angle(op.angle, param_values)
            c, s = np.cos(half), np.sin(half)
            a0, a1 = _single_views(amplitudes, n, op.qubits[0])
            b0 = a0.copy()
            a0[...] = c * b0 - s * a1
            a1[...] = s * b0 + c * a1
        elif kind == "RZ":
            half = 0.5 * _resolve_angle(op.angle, param_values)
            a0, a1 = _single_views(amplitudes, n, op.qubits[0])
            a0 *= np.exp(-1j * half)
            a1 *= np.exp(1j * half)
        elif kind == "P":
            lam = _resolve_angle(op.angle, param_values)
            _, a1 = _single_views(amplitudes, n, op.qubits[0])
            a1 *= np.exp(1j * lam)
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
    """Apply a single fully bound gate in place; returns the same state."""
    if not op.is_bound:
        raise BindingError(f"{op.kind} has an unbound angle slot")
    apply_ops(state.amplitudes, state.n_qubits, (op,))
    return state


def run_circuit(circuit: Circuit, param_values: Sequence[float] = ()) -> StateVector:
    """Advance |0...0> through the circuit with the given parameter bindings."""
    if len(param_values) != circuit.n_param_slots:
        raise BindingError(
            f"expected {circuit.n_param_slots} parameter values, got {len(param_values)}"
        )
    state = zero_state(circuit.n_qubits)
    apply_ops(state.amplitudes, circuit.n_qubits, circuit.ops, param_values)
    return state


def probabilities(state: StateVector) -> np.ndarray:
    """Outcome probability of every basis state: |amplitude|^2."""
    amps = state.amplitudes
    return (amps.real * amps.real + amps.imag * amps.imag).astype(np.float64)


def _validate_measured(n_qubits: int, qubits: Sequence[int]) -> tuple[int, ...]:
    qs = tuple(int(q) for q in qubits)
    if not qs:
        raise ConfigError("measured qubit list must be non-empty")
    if len(set(qs)) != len(qs):
        raise ConfigError(f"measured qubits must be distinct, got {qs}")
    if any(q < 0 or q >= n_qubits for q in qs):
        raise ConfigError(f"measured qubits {qs} out of range for {n_qubits} qubits")
    return qs


def marginal_probabilities(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Marginal outcome distribution over ``qubits``.

    Outcome index bit p (MSB first) corresponds to ``qubits[p]``, so with
    ascending qubits the outcome's bit string follows the register order.
    """
    qs = _validate_measured(state.n_qubits, qubits)
    n, k = state.n_qubits, len(qs)
    probs = probabilities(state)
    idx = np.arange(probs.size)
    outcome = np.zeros_like(idx)
    for p, q in enumerate(qs):
        outcome |= ((idx >> (n - 1 - q)) & 1) << (k - 1 - p)
    return np.bincount(outcome, weights=probs, minlength=1 << k)


def sample_counts(
    state: StateVector,
    shots: int,
    seed: int,
    measured_qubits: Sequence[int] | None = None,
) -> dict[str, int]:
    """Sample measurement outcomes; returns bit string -> count.

    Draws ``shots`` i.i.d. outcomes from the marginal distribution over
    ``measured_qubits`` (all qubits when omitted) using numpy's PCG64
    generator, so counts are reproducible for a fixed seed. Bit string
    character p corresponds to ``measured_qubits[p]``.
    """
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    qs = _validate_measured(
        state.n_qubits,
        range(state.n_qubits) if measured_qubits is None else measured_qubits,
    )
    marginal = marginal_probabilities(state, qs)
    pvals = marginal / marginal.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, pvals)
    k = len(qs)
    return {format(o, f"0{k}b"): int(c) for o, c in enumerate(counts) if c > 0}
