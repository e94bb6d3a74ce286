"""Independent oracles for the test suite.

Everything here rebuilds expected results from first principles — dense
Kronecker-product unitaries, explicit 2x2/4x4 gate matrices, brute-force
enumeration — and never calls the production strided kernels.
"""

from __future__ import annotations

import functools
from math import cos, sin

import numpy as np

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
CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


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


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a whole circuit: plain matrix products."""
    u = np.eye(1 << circuit.n_qubits, dtype=np.complex128)
    for op in circuit.ops:
        u = op_unitary(op, circuit.n_qubits) @ u
    return u


def run_circuit_dense(circuit) -> np.ndarray:
    """Final state from the dense-unitary product applied to |0...0>."""
    e0 = np.zeros(1 << circuit.n_qubits, dtype=np.complex128)
    e0[0] = 1.0
    return circuit_unitary(circuit) @ e0


def feature_map_circuit(x, spec):
    """Gate-level feature map of one sample, every angle bound: per
    repetition an H layer, P(2*phi_j) per qubit, then CX-P-CX per pair,
    with phi_j = x_j and phi_jk = (pi - x_j)(pi - x_k).

    Pairs and the angle maps are written out here rather than taken from
    the package, so the closed-form encoder is checked against an
    independent statement of the circuit.
    """
    from vqclass.statevec import Circuit, GateOp

    n = spec.n_qubits
    phi_single, phi_pair = (lambda a: a), (lambda a, b: (np.pi - a) * (np.pi - b))
    if spec.entanglement == "linear":
        pairs = [(j, j + 1) for j in range(n - 1)]
    else:
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    ops = []
    for _ in range(spec.reps):
        ops.extend(GateOp("H", (q,)) for q in range(n))
        ops.extend(GateOp("P", (q,), 2.0 * float(phi_single(x[q]))) for q in range(n))
        for j, k in pairs:
            ops.append(GateOp("CX", (j, k)))
            ops.append(GateOp("P", (k,), 2.0 * float(phi_pair(x[j], x[k]))))
            ops.append(GateOp("CX", (j, k)))
    return Circuit(n, tuple(ops))


def ansatz_circuit(spec, params):
    """Gate-level ansatz, every angle bound from ``params``: per repetition
    an RY layer, an RZ layer, then the entangling links, CY on even link
    positions and CZ on odd; a final RY and RZ layer closes it. Angles
    are read layer-major, qubit-minor.

    Links and their gate kinds are written out here rather than taken from
    the package, so the production ansatz is checked against an
    independent statement of the circuit.
    """
    from vqclass.statevec import Circuit, GateOp

    n = spec.n_qubits
    if spec.entanglement == "linear":
        pairs = [(j, j + 1) for j in range(n - 1)]
    else:
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    kinds = ["CY" if i % 2 == 0 else "CZ" for i in range(len(pairs))]
    angles = iter(float(a) for a in params)
    ops = []
    for layer in range(spec.reps + 1):
        if layer:
            ops.extend(GateOp(kind, pair) for kind, pair in zip(kinds, pairs))
        for kind in ("RY", "RZ"):
            ops.extend(GateOp(kind, (q,), next(angles)) for q in range(n))
    return Circuit(n, tuple(ops))


def random_circuit(rng: np.random.Generator, n_qubits: int, depth: int):
    """Random gate list over the full gate set, bound angles."""
    from vqclass.statevec import Circuit, GateOp

    single = ["H", "RY", "RZ", "P"]
    pair = ["CX", "CY", "CZ"]
    ops = []
    for _ in range(depth):
        if n_qubits >= 2 and rng.random() < 0.4:
            kind = pair[rng.integers(len(pair))]
            q = rng.choice(n_qubits, size=2, replace=False)
            ops.append(GateOp(kind, (int(q[0]), int(q[1]))))
        else:
            kind = single[rng.integers(len(single))]
            q = int(rng.integers(n_qubits))
            if kind == "H":
                ops.append(GateOp(kind, (q,)))
            else:
                ops.append(GateOp(kind, (q,), float(rng.uniform(-2 * np.pi, 2 * np.pi))))
    return Circuit(n_qubits, tuple(ops))


def random_state(rng: np.random.Generator, n_qubits: int):
    """Haar-ish random normalized state for property tests."""
    from vqclass.statevec import StateVector

    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps.astype(np.complex128))


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
