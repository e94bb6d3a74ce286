"""Second-order phase feature map, evaluated in closed form for a batch.

One qubit per feature (min-max normalized to [0, 1]). Each repetition is
H on every qubit, P(2*phi_j) per qubit and, for every entangled pair
(j, k), CX(j,k) P_k(2*phi_jk) CX(j,k), with the fixed angle map
phi_j = x_j and phi_jk = (pi - x_j)(pi - x_k). All of those phase terms
are diagonal, so a repetition is H^n followed by the phase
exp(i * [sum_j 2 phi_j b_j + sum_(j,k) 2 phi_jk (b_j XOR b_k)]) on
basis state |b_0 ... b_(n-1)>, computed for a whole batch at once.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EncodingError
from .statevec import MAX_QUBITS, GateOp, apply_ops

ENTANGLEMENTS = ("full", "linear")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Shape of the encoding circuit: one qubit per feature."""

    n_qubits: int
    reps: int = 1
    entanglement: str = "full"

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ConfigError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.entanglement not in ENTANGLEMENTS:
            raise ConfigError(f"entanglement must be one of {ENTANGLEMENTS}")


def entangled_pairs(spec: FeatureMapSpec) -> list[tuple[int, int]]:
    """Qubit pairs receiving a pairwise phase term, in application order."""
    if spec.entanglement == "linear":
        return [(j, j + 1) for j in range(spec.n_qubits - 1)]
    return list(itertools.combinations(range(spec.n_qubits), 2))


def _diagonal(angles: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """exp(i * phase) of basis state |b_0 ... b_(n-1)> (qubit 0 most
    significant) for each row of ``angles``; the phase sums the angles of
    the set bits b_j, then of the pairs (j, k) with b_j XOR b_k = 1. It is
    summed column by column, not by one matrix product, so a row's phase
    is rounded the same whatever batch it is encoded in."""
    n = spec.n_qubits
    bits = (np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1 == 1
    masks = list(bits) + [bits[j] ^ bits[k] for j, k in entangled_pairs(spec)]
    phase = np.zeros((len(angles), 1 << n))
    for col, mask in zip(angles.T, masks):
        np.add(phase, col[:, None], out=phase, where=mask)
    out = np.empty(phase.shape, dtype=np.complex128)  # cos and sin fill it in place
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def encode(x: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """Encode a batch of normalized feature vectors, shape (N, n), into
    the (N, 2^n) amplitudes of the states they map to.

    Features must already be min-max normalized: every entry in [0, 1].
    """
    n = spec.n_qubits
    if n > MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise EncodingError(f"features must have shape (N, {n}), got {arr.shape}")
    # the encoded batch plus the working copy p_ad evolves: two complex arrays
    need = 2 * arr.shape[0] * (1 << n) * 16
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"{arr.shape[0]} samples at n={n} qubits need about {need / 2**30:.1f} GiB of "
            f"state memory, more than the {have / 2**30:.1f} GiB of physical memory"
        )
    outside = ~((arr >= 0.0) & (arr <= 1.0))  # NaN included
    if np.any(outside):
        row, col = np.argwhere(outside)[0]
        raise EncodingError(
            f"sample {row} feature {col} = {arr[row, col]} outside [0, 1]; normalize upstream"
        )
    pairs = [(np.pi - arr[:, j]) * (np.pi - arr[:, k]) for j, k in entangled_pairs(spec)]
    angles = 2.0 * np.column_stack([arr, *pairs])
    diag = _diagonal(angles, spec)
    # the first H layer maps |0...0> to the uniform superposition
    amps = diag.copy() if spec.reps > 1 else diag
    amps *= 2.0 ** (-0.5 * n)
    h_layer = [GateOp("H", (q,)) for q in range(n)]
    for _ in range(spec.reps - 1):
        apply_ops(amps, n, h_layer)
        amps *= diag
    return amps
