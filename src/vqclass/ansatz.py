"""Trainable circuit: repeated RY/RZ rotation layers with CY/CZ links.

Each repetition applies an RY rotation to every qubit, then an RZ
rotation to every qubit, then an entangling block; a final RY+RZ layer
closes the circuit. Parameters are numbered layer-major, qubit-minor,
giving 2 * n_qubits * (reps + 1) in total: viewed as an array of shape
(reps + 1, 2, n_qubits), entry [r, 0, q] is the RY angle and [r, 1, q]
the RZ angle of qubit q in layer r. ``apply_ansatz`` runs the circuit
straight from that vector, each layer's fused RZ(phi) RY(theta) rotations
as one matrix product per group of GROUP adjacent qubits (gate fusion, as
in qsim: Isakov et al., arXiv:2111.02396); a last group short of GROUP
qubits reaches back over the one before, with the identity there, so every
product is 8x8 from n = 3 on. It takes states one per row (``vqc.p_ad``
gives it one row block at a time) and returns them batch-last.

The entangling block pairs neighbours (linear) or all pairs (full) and
alternates CY/CZ along the pair sequence: CY on even-position links, CZ
on odd. A block sends each basis state to one basis state times a phase
in {1, -1, i, -i}, so it runs as one gather (an index array and a phase
vector, built once per block), bit-identical to applying its links
one by one.

Given the measured qubits, only gates in the readout's light cone run:
walking backward from them, gates whose qubits all lie outside the cone
and the final RZ layer (diagonal before a Z-basis readout) are dropped.
So 2n - |measured| or more parameters are dead for the readout; the
vector keeps them and its layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BindingError, ConfigError
from .featmap import ENTANGLEMENTS, entangled_pairs
from .statevec import COUNT_BYTES, MAX_QUBITS, apply_block, padded_columns, physical_memory

# qubits per fused rotation block: 3 and 4 were about as fast at n = 5, 8 and 12, 2 lost at 12
GROUP = 3
# a build peaks at about 4 KB per group and layer: 8 layers stay inside state_memory's spare
BUILD_LAYERS = 8


@dataclass(frozen=True)
class AnsatzSpec:
    """Topology of the trainable circuit."""

    n_qubits: int
    reps: int = 2
    entanglement: str = "linear"

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.n_params * COUNT_BYTES + self.table_bytes > physical_memory():
            raise ConfigError(f"reps = {self.reps} needs more than the physical memory "
                              f"at {COUNT_BYTES} B per parameter plus its gather tables")
        if self.entanglement not in ENTANGLEMENTS:
            raise ConfigError(f"entanglement must be one of {ENTANGLEMENTS}")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)

    @property
    def table_bytes(self) -> int:
        """Bytes of the tables ``vqc.p_ad`` caches, whatever the batch: per basis state,
        24 B per distinct gather (<= min(reps, n); <= 2 with full entanglement, whose
        first block back from the readout reaches every qubit), 8 B of mask, 32 B of build."""
        gathers = min(self.reps, 2 if self.entanglement == "full" else self.n_qubits)
        return (24 * gathers + 40) << self.n_qubits


def entangling_links(spec: AnsatzSpec) -> list[tuple[str, tuple[int, int]]]:
    """(gate kind, qubit pair) for each link of one entangling block."""
    return [("CY" if i % 2 == 0 else "CZ", p) for i, p in enumerate(entangled_pairs(spec))]


@functools.lru_cache(maxsize=16)
def block_gather(n: int, links: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(inv, phase) such that applying ``links`` in order to states of n
    qubits, shape (..., 2^n), gives ``states[..., inv] * phase``."""
    image = np.arange(1 << n)  # where each basis state is sent
    gain = np.ones(1 << n, dtype=np.complex128)  # and the phase it picks up
    for kind, (control, target) in links:
        on = (image >> (n - 1 - control)) & 1 == 1
        hit = (image >> (n - 1 - target)) & 1 == 1
        if kind == "CY":  # Y|0> = i|1>, Y|1> = -i|0>
            gain[on] *= np.where(hit[on], -1j, 1j)
            image[on] ^= 1 << (n - 1 - target)
        else:  # CZ
            gain[on & hit] *= -1.0
    inv = np.argsort(image)
    phase = gain[inv]
    inv.flags.writeable = phase.flags.writeable = False
    return inv, phase


@functools.lru_cache(maxsize=16)
def _light_cone(spec: AnsatzSpec, measured: tuple[int, ...] | None) -> list:
    """Per layer, the gather of the live links of the block before it (None in
    layer 0 or with no live link), then the index of each group owning a live
    rotation and the (2, n) factors that halve live RY and RZ angles and zero
    dead ones. ``measured`` None keeps every gate."""
    n = spec.n_qubits
    cone = set(range(n) if measured is None else measured)
    layers = []
    for layer in range(spec.reps, -1, -1):
        groups = sorted({q // GROUP for q in cone})
        rz = 0.5 * (measured is None or layer < spec.reps)  # the last RZs precede a Z readout
        half = np.outer([0.5, rz], np.isin(range(n), list(cone)))
        live = []
        for kind, (a, b) in reversed(entangling_links(spec) if layer else []):
            if a in cone or b in cone:
                live.append((kind, (a, b)))
                cone.update((a, b))
        layers.append((block_gather(n, tuple(live[::-1])) if live else None, (groups, half)))
    return layers[::-1]


@functools.cache  # built on first use: at import it raised a kernel run's peak RSS by 1 MB
def _group_tables(n: int) -> tuple[np.ndarray, ...]:
    """Group g's k = min(GROUP, n) qubits [q0, q0 + k), q0 = min(g * GROUP, n - k), [g, j],
    and whether g owns each (it lies in [g * GROUP, n)); which of qubit j's (cos, sin, -sin)
    RY puts at row r, column c of a group's matrix, [j, r, c]; the sign of qubit j's phi / 2
    in row r's RZ phase exponent, [j, r]: RZ(phi) = diag(e^(-i phi / 2), e^(i phi / 2))."""
    k, start = min(GROUP, n), np.arange(0, n, GROUP)[:, None]
    qubit = np.minimum(start, n - k) + np.arange(k)
    bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    entry = np.array([[0, 2], [1, 0]])[bits[..., None], bits[:, None]]
    return qubit, qubit >= start, 3 * np.arange(k)[:, None, None] + entry, 1.0 - 2.0 * bits


def _rotation_layers(angles: np.ndarray, cone: list):
    """Per layer r of ``cone``, RY ``angles[r, 0]`` and RZ ``angles[r, 1]``, each group's 2^k x 2^k
    matrix: the Kronecker product of the fused RZ(phi) RY(theta) 2x2s of its qubits, a phase
    per row times products of cosines and sines, with the identity on those it does not own."""
    qubit, owned, ry_entry, rz_sign = _group_tables(angles.shape[-1])
    for first in range(0, len(cone), BUILD_LAYERS):
        halves = np.stack([h for _, (_, h) in cone[first : first + BUILD_LAYERS]])
        half = (angles[first : first + len(halves)] * halves)[..., qubit] * owned
        trig = np.empty((len(halves), *qubit.shape, 3))  # cos, sin, -sin
        np.cos(half[:, 0], out=trig[..., 0])
        np.negative(np.sin(half[:, 0], out=trig[..., 1]), out=trig[..., 2])
        ry = np.take(trig.reshape(len(halves), len(qubit), -1), ry_entry, axis=-1).prod(axis=2)
        yield from np.exp(-1j * (half[:, 1] @ rz_sign))[..., None] * ry


def apply_ansatz(
    states: np.ndarray, spec: AnsatzSpec, params: Sequence[float], measured_qubits=None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Advance the rows of ``states``, one state each, (N, 2^n), through the ansatz with
    parameter vector ``params``; return them batch-last, (2^n, N), a view into ``work``.
    ``states`` is not written. Given ``measured_qubits``, only the gates in their light
    cone run: the result then holds the right probabilities on those qubits, not the full
    final state. The rows are copied in transposed, zero-padded to C = padded_columns(N, n)
    columns, into the first half of ``work``, complex (2, >= C << n) and allocated if not
    given; each rotation group writes into the other half, then the halves swap."""
    n, k = spec.n_qubits, min(GROUP, spec.n_qubits)
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise BindingError(f"expected {spec.n_params} parameters, got shape {params.shape}")
    if states.ndim != 2 or states.shape[1] != 1 << n:
        raise BindingError(f"states must have shape (N, {1 << n}), got {states.shape}")
    rows, cols = len(states), padded_columns(len(states), n)
    if work is None:
        work = np.empty((2, cols << n), dtype=np.complex128)
    # a short batch takes the first cols << n elements of each half, so it stays contiguous
    cur, other = work[:, : cols << n].reshape(2, 1 << n, cols)
    cur[:, :rows] = states.T
    cur[:, rows:] = 0.0  # so each row rounds in BLAS as it would alone
    cone = _light_cone(spec, None if measured_qubits is None else tuple(measured_qubits))
    for (gather, (groups, _)), mats in zip(cone, _rotation_layers(params.reshape(-1, 2, n), cone)):
        if gather is not None:
            inv, phase = gather
            np.take(cur, inv, axis=0, out=other, mode="clip")  # "raise" would buffer
            np.multiply(other, phase[:, None], out=cur)
        for g in groups:
            apply_block(mats[g], cur, min(g * GROUP, n - k), other)
            cur, other = other, cur
    return cur[:, :rows]


def init_params(spec: AnsatzSpec, seed: int) -> np.ndarray:
    """I.i.d. uniform angles on (-pi, pi], seeded and reproducible."""
    rng = np.random.default_rng(seed)
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=spec.n_params)
