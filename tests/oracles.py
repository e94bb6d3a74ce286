"""Independent oracles for the test suite.

Everything here rebuilds expected results from first principles — dense
Kronecker-product unitaries, explicit 2x2/4x4 gate matrices, brute-force
enumeration — and imports nothing from the package, so no production
kernel, table or cone can leak into the reference. Circuits and states
are plain records; specs are read by duck typing (``n_qubits``,
``reps``, ``entanglement``).
"""

from __future__ import annotations

import functools
from math import cos, sin
from typing import NamedTuple

import numpy as np


class Op(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None


class Circuit(NamedTuple):
    n_qubits: int
    ops: tuple[Op, ...]


class State(NamedTuple):
    n_qubits: int
    amplitudes: np.ndarray

I2 = np.eye(2, dtype=np.complex128)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
X_MAT = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
H_MAT = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

CY_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=np.complex128
)
CZ_MAT = np.diag([1, 1, 1, -1]).astype(np.complex128)


def ry_mat(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz_mat(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=np.complex128
    )


def p_mat(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=np.complex128)


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    return functools.reduce(np.kron, mats)


def embed_single(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Full 2^n unitary of a 1-qubit gate; qubit 0 is the leftmost factor."""
    return kron_chain([u if q == qubit else I2 for q in range(n)])


def embed_controlled(u: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """Full 2^n unitary of controlled-u via projector decomposition."""
    off = kron_chain([P0 if q == control else I2 for q in range(n)])
    on = kron_chain(
        [P1 if q == control else (u if q == target else I2) for q in range(n)]
    )
    return off + on


def op_unitary(op, n: int) -> np.ndarray:
    """Dense unitary of one gate op."""
    angle = op.angle
    if op.kind == "H":
        return embed_single(H_MAT, op.qubits[0], n)
    if op.kind == "RY":
        return embed_single(ry_mat(angle), op.qubits[0], n)
    if op.kind == "RZ":
        return embed_single(rz_mat(angle), op.qubits[0], n)
    if op.kind == "P":
        return embed_single(p_mat(angle), op.qubits[0], n)
    if op.kind == "CX":
        return embed_controlled(X_MAT, op.qubits[0], op.qubits[1], n)
    if op.kind == "CY":
        return embed_controlled(Y_MAT, op.qubits[0], op.qubits[1], n)
    if op.kind == "CZ":
        return embed_controlled(np.diag([1, -1]).astype(np.complex128), *op.qubits, n)
    raise ValueError(op.kind)


def apply_pair(states: np.ndarray, n: int, u4: np.ndarray, a: int, b: int) -> np.ndarray:
    """``states``, shape (..., 2^n), with the 4x4 matrix ``u4`` applied to
    qubits (a, b), qubit a indexing its rows' more significant bit."""
    k = states.ndim - 1
    view = states.reshape(states.shape[:-1] + (2,) * n)
    out = np.tensordot(u4.reshape(2, 2, 2, 2), view, axes=([2, 3], [k + a, k + b]))
    return np.moveaxis(out, [0, 1], [k + a, k + b]).reshape(states.shape)


def apply_one(states: np.ndarray, n: int, u2: np.ndarray, q: int) -> np.ndarray:
    """``states``, shape (..., 2^n), with the 2x2 matrix ``u2`` applied to qubit q."""
    k = states.ndim - 1
    view = states.reshape(states.shape[:-1] + (2,) * n)
    out = np.tensordot(u2, view, axes=([1], [k + q]))
    return np.moveaxis(out, 0, k + q).reshape(states.shape)


def run_gates(circuit, states: np.ndarray) -> np.ndarray:
    """``states``, shape (..., 2^n), through ``circuit`` one gate at a time, each
    contracted into its own qubit axes: no 2^n x 2^n matrix, so it reaches n = 12."""
    n = circuit.n_qubits
    for op in circuit.ops:
        if len(op.qubits) == 1:
            states = apply_one(states, n, op_unitary(op._replace(qubits=(0,)), 1), op.qubits[0])
        else:
            states = apply_pair(states, n, op_unitary(op._replace(qubits=(0, 1)), 2), *op.qubits)
    return states


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a whole circuit: plain matrix products."""
    u = np.eye(1 << circuit.n_qubits, dtype=np.complex128)
    for op in circuit.ops:
        u = op_unitary(op, circuit.n_qubits) @ u
    return u


def basis_state(n_qubits: int, index: int = 0):
    """Computational basis state |index>; qubit 0 is the leftmost bit."""
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return State(n_qubits, amps)


def run_circuit_dense(circuit) -> np.ndarray:
    """Final state from the dense-unitary product applied to |0...0>."""
    return circuit_unitary(circuit) @ basis_state(circuit.n_qubits).amplitudes


def _pairs(spec) -> list[tuple[int, int]]:
    """Entangled qubit pairs: neighbours (linear) or every pair (full), in order."""
    n = spec.n_qubits
    if spec.entanglement == "linear":
        return [(j, j + 1) for j in range(n - 1)]
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def feature_map_circuit(x, spec):
    """Gate-level feature map of one sample, every angle bound: per
    repetition an H layer, P(2*phi_j) per qubit, then CX-P-CX per pair,
    with phi_j = x_j and phi_jk = (pi - x_j)(pi - x_k).

    Pairs and the angle maps are written out here rather than taken from
    the package, so the closed-form encoder is checked against an
    independent statement of the circuit.
    """
    n = spec.n_qubits
    phi_single, phi_pair = (lambda a: a), (lambda a, b: (np.pi - a) * (np.pi - b))
    pairs = _pairs(spec)
    ops = []
    for _ in range(spec.reps):
        ops.extend(Op("H", (q,)) for q in range(n))
        ops.extend(Op("P", (q,), 2.0 * float(phi_single(x[q]))) for q in range(n))
        for j, k in pairs:
            ops.append(Op("CX", (j, k)))
            ops.append(Op("P", (k,), 2.0 * float(phi_pair(x[j], x[k]))))
            ops.append(Op("CX", (j, k)))
    return Circuit(n, tuple(ops))


def feature_map_phase(x, index: int, spec) -> float:
    """Phase one repetition of the feature map puts on basis state |index>
    (qubit 0 the most significant bit): 2 x_j for each set bit b_j, then
    2 (pi - x_j)(pi - x_k) for each entangled pair whose two bits differ,
    summed one bit and one pair at a time."""
    n = spec.n_qubits
    bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
    phase = 0.0
    for q in range(n):
        if bits[q]:
            phase += 2.0 * float(x[q])
    for j, k in _pairs(spec):
        if bits[j] != bits[k]:
            phase += 2.0 * (np.pi - float(x[j])) * (np.pi - float(x[k]))
    return phase


def feature_map_phases(xs, spec) -> np.ndarray:
    """``feature_map_phase`` of every basis state for each row of ``xs``, (N, 2^n), in
    long double from the float64 features and the float64 pi the package uses."""
    n = spec.n_qubits
    xs, pi = np.asarray(xs, dtype=np.longdouble), np.longdouble(np.pi)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.longdouble)
    phase = 2 * xs @ bits.T
    for j, k in _pairs(spec):
        phase += (2 * (pi - xs[:, j]) * (pi - xs[:, k]))[:, None] * (bits[:, j] != bits[:, k])
    return phase


def ansatz_circuit(spec, params):
    """Gate-level ansatz, every angle bound from ``params``: per repetition
    an RY layer, an RZ layer, then the entangling links, CY on even link
    positions and CZ on odd; a final RY and RZ layer closes it. Angles
    are read layer-major, qubit-minor.

    Links and their gate kinds are written out here rather than taken from
    the package, so the production ansatz is checked against an
    independent statement of the circuit.
    """
    n = spec.n_qubits
    pairs = _pairs(spec)
    kinds = ["CY" if i % 2 == 0 else "CZ" for i in range(len(pairs))]
    angles = iter(float(a) for a in params)
    ops = []
    for layer in range(spec.reps + 1):
        if layer:
            ops.extend(Op(kind, pair) for kind, pair in zip(kinds, pairs))
        for kind in ("RY", "RZ"):
            ops.extend(Op(kind, (q,), next(angles)) for q in range(n))
    return Circuit(n, tuple(ops))


def classifier_states(xs, fmap_spec, ansatz_spec, params) -> np.ndarray:
    """Final states of the samples ``xs`` through the whole classifier
    circuit: the dense ansatz unitary applied to each dense feature-map state."""
    fmap = np.array([run_circuit_dense(feature_map_circuit(x, fmap_spec)) for x in xs])
    return fmap @ circuit_unitary(ansatz_circuit(ansatz_spec, params)).T


def random_state(rng: np.random.Generator, n_qubits: int):
    """Haar-ish random normalized state for property tests."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return State(n_qubits, amps.astype(np.complex128))


def auroc_bruteforce(y_true, scores) -> float:
    """O(P*N) pairwise statistic, ties counted one half."""
    pos = [s for y, s in zip(y_true, scores) if y == 1]
    neg = [s for y, s in zip(y_true, scores) if y == 0]
    credit = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                credit += 1.0
            elif sp == sn:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def p_even_bruteforce(state, measured_qubits) -> float:
    """Even-parity mass by enumerating every basis outcome explicitly."""
    n = state.n_qubits
    total = 0.0
    for idx in range(1 << n):
        bits = format(idx, f"0{n}b")
        marg = "".join(bits[q] for q in measured_qubits)
        if marg.count("1") % 2 == 0:
            total += abs(state.amplitudes[idx]) ** 2
    return total
