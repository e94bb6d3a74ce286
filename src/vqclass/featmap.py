"""Second-order phase feature map, evaluated in closed form for a batch.

One qubit per feature (min-max normalized to [0, 1]). Each repetition is H on every
qubit, P(2*phi_j) per qubit and, for every entangled pair (j, k), CX(j,k) P_k(2*phi_jk)
CX(j,k), with the fixed angle map phi_j = x_j and phi_jk = (pi - x_j)(pi - x_k). All of
those phase terms are diagonal, so a repetition is H^n followed by the phase
exp(i * [sum_j 2 phi_j b_j + sum_(j,k) 2 phi_jk (b_j XOR b_k)]) on basis state
|b_0 ... b_(n-1)>. The module also holds the topology checks both specs share."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EncodingError
from .statevec import BLOCK_BYTES, MAX_QUBITS, physical_memory

ENTANGLEMENTS = ("linear", "full")
# At 2^-52 of |psi|^2 per H gate, this many H gates (n per repetition after
# the first) keep the kernel's unit diagonal |psi|^4 within 1e-12 of 1, the
# tolerance the benchmark's gate checks kernel_train.csv to. Conservative: an H
# layer is n butterflies and one 2^(-n/2) scaling, so |psi|^2 drifts per layer.
MAX_H_GATES = int(1e-12 / (2 * 2.0**-52))


@dataclass(frozen=True)
class FeatureMapSpec:
    """Shape of the encoding circuit: one qubit per feature."""

    n_qubits: int
    reps: int = 1
    entanglement: str = "full"

    def __post_init__(self) -> None:
        check_topology(self)
        if (self.reps - 1) * self.n_qubits > MAX_H_GATES:
            raise ConfigError(f"reps must be <= {1 + MAX_H_GATES // self.n_qubits} at "
                              f"n={self.n_qubits} ({MAX_H_GATES} H gates), got {self.reps}")


def check_topology(spec) -> None:
    """The checks a feature map's and an ansatz's spec share: the qubit count, the
    repetitions and the entanglement; each raises ConfigError."""
    if not 1 <= spec.n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in [1, {MAX_QUBITS}], got {spec.n_qubits}")
    if spec.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {spec.reps}")
    if spec.entanglement not in ENTANGLEMENTS:
        raise ConfigError(f"entanglement must be one of {ENTANGLEMENTS}")


def entangled_pairs(spec) -> list[tuple[int, int]]:
    """Entangled qubit pairs of a feature map's or an ansatz's spec, in order."""
    if spec.entanglement == "linear":
        return [(j, j + 1) for j in range(spec.n_qubits - 1)]
    return list(itertools.combinations(range(spec.n_qubits), 2))


def _diagonal(x: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """2^(-n/2) exp(i * phase) of basis state |b_0 ... b_(n-1)> per row of ``x``, as
    products of unit complex factors. As b_j XOR b_k = b_j + b_k - 2 b_j b_k, the phase is
    the sum over set bits b_j of 2 phi_j plus 2 phi_jk for each of j's pairs (j, k), less
    4 phi_jk for each pair with both bits set. So by doubling, from the last qubit up,
    qubit j copies columns [0, m) to [m, 2m), where b_j is set, times its own factor and
    the e^(-4i phi_jk) of its pairs with b_k set, themselves doubled from the last k up.
    A pair's angle rounds alike in all three of its factors, so it cancels where both bits
    are set, and no phase is summed whole: no cosine of an angle that grows with the pair
    count. numpy rounds a complex product on a one-element loop apart from a longer one
    when it is in place, or when the loop runs down a batch's rows; so the per-row factors
    are multiplied into new arrays, and every product over a block of columns runs along
    at least 2 of them in each row: a row's state is the same in any batch."""
    n, rows = spec.n_qubits, len(x)
    angle = {(j, k): 2.0 * (np.pi - x[:, j]) * (np.pi - x[:, k])  # 2 phi_jk
             for j, k in entangled_pairs(spec)}
    own = [np.exp(2j * x[:, j]) for j in range(n)]  # times e^(2i phi_jk) of each of j's pairs
    for (j, k), a in angle.items():
        w = np.exp(1j * a)
        own[j], own[k] = own[j] * w, own[k] * w
    scale = 2.0 ** (-0.5 * n)  # H^n|0...0>, carried into every product
    out = np.empty((rows, 1 << n), dtype=np.complex128)
    out[:, 0] = scale
    out[:, 1] = own[n - 1] * scale
    for j in range(n - 2, -1, -1):
        m = 1 << (n - 1 - j)
        new = out[:, m : 2 * m]
        new[:, 0] = own[j]
        for i, k in enumerate(range(n - 1, j, -1)):  # bit i of a column is qubit n - 1 - i
            if (j, k) not in angle:
                new[:, 1 << i : 2 << i] = new[:, : 1 << i]
            elif i == 0:
                new[:, 1] = own[j] * np.exp(-2j * angle[j, k])
            else:
                np.multiply(new[:, : 1 << i], np.exp(-2j * angle[j, k])[:, None],
                            out=new[:, 1 << i : 2 << i])
        new *= out[:, :m]
    return out


def state_memory(n_rows: int, spec: FeatureMapSpec) -> int:
    """Bytes a batch of ``n_rows`` states needs at its peak in ``encode``, then beside
    it in ``vqc.p_ad`` or in the kernel verb's row block (``statevec.row_blocks``);
    ``AnsatzSpec.table_bytes`` counts p_ad's cached tables."""
    # per amplitude: the states (16 B), built in place; from reps 2 on also the
    # phase factors and a butterfly's temporary
    states = n_rows * (16 if spec.reps == 1 else 48) << spec.n_qubits
    # p_ad's row block, its gates' scratch, its readout temporaries and half a block spare
    return states + 7 * max(16 << spec.n_qubits, BLOCK_BYTES) // 2


def encode(x: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """The (N, 2^n) amplitudes of the states a batch of feature vectors, (N, n), maps to.
    Features must already be min-max normalized: every entry in [0, 1]."""
    n = spec.n_qubits
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise EncodingError(f"features must have shape (N, {n}), got {arr.shape}")
    need, have = state_memory(arr.shape[0], spec), physical_memory()
    if need > have:
        raise ConfigError(f"{arr.shape[0]} samples at n={n} qubits need about "
                          f"{need / 2**30:.1f} GiB of state memory (the batch, its gate "
                          "temporaries and the classifier's row blocks), more than the "
                          f"{have / 2**30:.1f} GiB of physical memory")
    outside = ~((arr >= 0.0) & (arr <= 1.0))  # NaN included
    if np.any(outside):
        row, col = np.argwhere(outside)[0]
        raise EncodingError(f"sample {row} feature {col} = {arr[row, col]} outside [0, 1]; "
                            "normalize upstream")
    # H^n|0...0> is uniform; later H layers are butterflies, their 2^(-n/2) in diag
    amps = _diagonal(arr, spec)
    diag = amps.copy() if spec.reps > 1 else None
    for _ in range(spec.reps - 1):
        for q in range(n):
            a0, a1 = np.moveaxis(amps.reshape(len(amps), 1 << q, 2, -1), 2, 0)
            t = a0 - a1
            a0 += a1
            a1[...] = t
        amps *= diag
    return amps
