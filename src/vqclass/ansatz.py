"""Trainable circuit: repeated RY/RZ rotation layers with CY/CZ links.

Each of ``reps`` repetitions applies RY then RZ to every qubit, then an entangling block
whose links (``featmap.entangled_pairs``) alternate CY on even positions and CZ on odd; a
final RY+RZ layer closes the circuit. The 2 * n * (reps + 1) parameters, viewed as
(reps + 1, 2, n), hold layer r's RY angle of qubit q at [r, 0, q] and its RZ angle at
[r, 1, q]. Only the gates in the light cone of the measured qubits run, and the dead
parameters keep their place in the vector. ``build_ansatz`` binds a vector into
the planned steps and ``apply_ansatz`` runs them on a block of states.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BindingError, ConfigError
from .featmap import check_topology, entangled_pairs
from .statevec import COUNT_BYTES, apply_block, physical_memory, row_blocks

# qubits per fused rotation block: 3 and 4 were about as fast at n = 5, 8 and 12, 2 lost at 12
GROUP = 3


@dataclass(frozen=True)
class AnsatzSpec:
    """Topology of the trainable circuit."""

    n_qubits: int
    reps: int = 2
    entanglement: str = "linear"

    def __post_init__(self) -> None:
        check_topology(self)
        if self.n_params * COUNT_BYTES + self.table_bytes > physical_memory():
            raise ConfigError(f"reps = {self.reps} needs more than the physical memory "
                              f"at {COUNT_BYTES} B per parameter plus its gather and phase tables")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)

    @property
    def table_bytes(self) -> int:
        """Bytes of the tables ``vqc.p_ad`` caches or binds, whatever the batch: per basis
        state, 24 B per distinct gather (<= min(reps, n); <= 2 with full entanglement, whose
        first block back from the readout reaches every qubit; each cached in one form, see
        ``_light_cone``), 8 B of mask, 32 B of build, and 16 B per RZ phase vector a call
        binds: one per layer after the first, one more for the diagonal being folded."""
        gathers = min(self.reps, 2 if self.entanglement == "full" else self.n_qubits)
        return (24 * gathers + 16 * (self.reps + 1) + 40) << self.n_qubits


def entangling_links(spec: AnsatzSpec) -> list[tuple[str, tuple[int, int]]]:
    """(gate kind, qubit pair) for each link of one entangling block."""
    return [("CY" if i % 2 == 0 else "CZ", p) for i, p in enumerate(entangled_pairs(spec))]


def check_measured(measured, n: int) -> tuple[int, ...]:
    """``measured`` as ints; ConfigError unless it names one or more distinct qubits of n."""
    measured = tuple(measured)
    if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in measured):
        raise ConfigError(f"measured_qubits must be integers, got {measured!r}")
    measured = tuple(map(int, measured))
    if not measured:
        raise ConfigError("measured_qubits must be non-empty")
    if len(set(measured)) != len(measured):
        raise ConfigError(f"measured_qubits must be distinct, got {measured}")
    if not all(0 <= q < n for q in measured):
        raise ConfigError(f"measured_qubits {measured} out of range for n={n}")
    return measured


@functools.lru_cache(maxsize=16)
def block_gather(n: int, links: tuple, swapped: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(inv, phase) such that applying ``links`` in order to states of n qubits, shape
    (..., 2^n), gives ``states[..., inv] * phase``: each link sends a basis state to one
    basis state times a phase in {1, -1, i, -i}, so the gather is exact. With ``swapped``,
    ``inv`` reads states held with their first n // 2 qubits after the rest, as a swap step
    leaves them, and the result is in plain order."""
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
    if swapped:  # plain index a * 2^(n - h) + b sits at b * 2^h + a
        low = n - n // 2
        inv = (inv & ((1 << low) - 1)) << (n // 2) | inv >> low
    inv.flags.writeable = phase.flags.writeable = False
    return inv, phase


# typed, with each qubit an argument: a plan cached for 1 is not served for 1.0 or True
@functools.lru_cache(maxsize=16, typed=True)
def _light_cone(spec: AnsatzSpec, *measured: int) -> tuple[list, np.ndarray]:
    """The ansatz read out on ``measured`` (checked once per plan) as (steps, factors).
    ``factors``, (layers, 2, n) and read-only, halves live RY and RZ angles and zeros dead
    ones: walking back from the measured qubits, a gate whose qubits all lie outside the
    cone is dead, and so are the last RZs, diagonal before a Z-basis readout, so
    2n - |measured| or more parameters are dead. The steps, in run order: ("swap", first)
    moves the register's ``first`` leading qubits after the rest; ("group", layer, g,
    qubit) runs group g's RY product of ``layer`` from ``qubit`` of the layout the register
    is in; ("gather", layer, swapped, inv, phase) opens every later layer with the live
    links of the block after ``layer`` (none at n = 1: the identity) and that layer's RZs
    folded in, reading the layout ``swapped`` records; it leaves the register plain.

    A product on qubits [q0, q0 + 3) of batch-last states is a stack of 2^q0 products each
    2^(n - q0 - 3) times the batch wide, so with h = n // 2 a layer's groups at q0 >= h run
    at q0 - h after one swap of the first h qubits behind the rest (Haener and Steiger,
    SC17, arXiv:1704.01127); a plan that ends swapped ends with the swap back. The cone
    before a gather is its links' qubits, so its layout follows from them: one cached form."""
    n, h = spec.n_qubits, spec.n_qubits // 2
    cone = set(check_measured(measured, n))
    backward = []
    for layer in range(spec.reps, -1, -1):
        groups = sorted({q // GROUP for q in cone})
        # the last RZs precede a Z readout
        half = np.outer([0.5, 0.5 * (layer < spec.reps)], np.isin(range(n), list(cone)))
        live = []
        for kind, (a, b) in reversed(entangling_links(spec) if layer else []):
            if a in cone or b in cone:
                live.append((kind, (a, b)))
                cone.update((a, b))
        backward.append((tuple(live[::-1]), groups, half))
    steps, swapped = [], False
    for layer, (live, groups, _) in enumerate(reversed(backward)):
        if layer:
            steps.append(("gather", layer - 1, swapped, *block_gather(n, live, swapped)))
            swapped = False
        for g in groups:
            q0 = min(g * GROUP, n - min(GROUP, n))
            high = 0 < h <= q0
            if high and not swapped:
                steps.append(("swap", h))
                swapped = True
            steps.append(("group", layer, g, q0 - h if high else q0))
    if swapped:
        steps.append(("swap", n - h))
    factors = np.stack([half for _, _, half in reversed(backward)])
    factors.flags.writeable = False
    return steps, factors


@functools.cache  # built on first use: at import it raised a kernel run's peak RSS by 1 MB
def _group_tables(n: int) -> tuple[np.ndarray, ...]:
    """Group g's k = min(GROUP, n) qubits [q0, q0 + k), q0 = min(g * GROUP, n - k), [g, j],
    and whether g owns each (it lies in [g * GROUP, n)); which of qubit j's (cos, sin, -sin)
    RY puts at row r, column c of a group's matrix, [j, r, c]. A last group short of GROUP
    qubits reaches back over the one before, so every product is 2^k x 2^k."""
    k, start = min(GROUP, n), np.arange(0, n, GROUP)[:, None]
    qubit = np.minimum(start, n - k) + np.arange(k)
    bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    entry = np.array([[0, 2], [1, 0]])[bits[..., None], bits[:, None]]
    return qubit, qubit >= start, 3 * np.arange(k)[:, None, None] + entry


def _rotation_layers(half: np.ndarray):
    """Per layer r of the RY half angles ``half``, (layers, n), each group's real 2^k x 2^k
    matrix: the Kronecker product of the RY(2 * half[r, q]) 2x2s of its qubits (gate fusion,
    as in qsim: Isakov et al., arXiv:2111.02396), products of cosines and sines, with the
    identity on those it does not own."""
    qubit, owned, ry_entry = _group_tables(half.shape[-1])
    # a build peaks at about 4 KB per group and layer: at 8 KB a layer's group, a chunk of
    # layers stays within half a block, state_memory's spare
    for layers in row_blocks(len(half), 8192 * len(qubit)):
        part = half[layers][..., qubit] * owned
        trig = np.empty((*part.shape, 3))  # cos, sin, -sin
        np.cos(part, out=trig[..., 0])
        np.negative(np.sin(part, out=trig[..., 1]), out=trig[..., 2])
        entries = np.take(trig.reshape(len(part), len(qubit), -1), ry_entry, axis=-1)
        yield from entries.prod(axis=2)


@functools.cache
def _factor_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For qubits [0, n // 2) and [n // 2, n), [b, j]: where the factor of the part's qubit j
    for its basis state b sits in the flat (n, 2) table of each qubit's bit-0 and 1 factors."""
    h, k = n // 2, n - n // 2  # the first part's basis states are the first 2^h of the rest's
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return 2 * np.arange(h) + bits[: 1 << h, k - h :], 2 * np.arange(h, n) + bits


def _rz_diagonal(half: np.ndarray, swapped: bool) -> np.ndarray:
    """The 2^n diagonal of RZ(2 * half[q]) on every qubit q, RZ(phi) = diag(e^(-i phi / 2),
    e^(i phi / 2)), over the basis states in plain order or, ``swapped``, with the first
    n // 2 qubits after the rest: the outer product of the products of the two parts'
    qubits' factors (no angle is summed), the leading part first."""
    factors = np.exp(np.multiply.outer(half, [-1j, 1j])).ravel()
    first, rest = (factors[index].prod(axis=1) for index in _factor_index(len(half)))
    return np.multiply.outer(*((rest, first) if swapped else (first, rest))).ravel()


def build_ansatz(spec: AnsatzSpec, params: Sequence[float], measured_qubits: Sequence[int]) -> list:
    """The steps of the light cone of ``measured_qubits`` with parameter vector ``params``
    bound, for ``apply_ansatz``, in run order: ("swap", first); ("group", real RY matrix,
    start qubit); ("gather", inv, phase), which sends the amplitude at b to in[inv[b]] *
    phase[b], the entangling block's phase times the layer before's RZ diagonal read
    through ``inv`` and built in the layout the register is in when it runs."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise BindingError(f"expected {spec.n_params} parameters, got shape {params.shape}")
    if not np.isfinite(params).all():
        raise BindingError("parameters must be finite")
    steps, factors = _light_cone(spec, *measured_qubits)
    half = params.reshape(-1, 2, spec.n_qubits) * factors
    mats = list(_rotation_layers(half[:, 0]))
    bound = []
    for step in steps:
        match step:
            case ("group", layer, g, qubit):
                step = "group", mats[layer][g], qubit
            case ("gather", layer, swapped, inv, phase):
                folded = _rz_diagonal(half[layer, 1], swapped)[inv]
                folded *= phase
                step = "gather", inv, folded
        bound.append(step)
    return bound


def _swap_halves(src: np.ndarray, dst: np.ndarray, first: int) -> None:
    """Write to ``dst`` the batch-last amplitudes ``src``, (2^n, C), with their
    ``first`` leading qubits moved after the rest."""
    cols = src.shape[-1]
    dst.reshape(-1, 1 << first, cols)[...] = src.reshape(1 << first, -1, cols).transpose(1, 0, 2)


def apply_ansatz(
    states: np.ndarray, spec: AnsatzSpec, layers: list, work: np.ndarray | None = None
) -> np.ndarray:
    """Advance the rows of ``states``, one state each, (N, 2^n), through the steps
    ``layers`` from ``build_ansatz``; return them batch-last, (2^n, N), a view into ``work``,
    complex (2, >= N << n) and allocated if not given. ``states`` is not written. The result
    holds the right probabilities on the qubits the steps were built for, not the full
    final state. Every product is a real GEMM at most ``GEMM_WIDTH`` floats wide, so a
    row's result does not depend on N."""
    n = spec.n_qubits
    if states.ndim != 2 or states.shape[1] != 1 << n:
        raise BindingError(f"states must have shape (N, {1 << n}), got {states.shape}")
    rows = len(states)
    if work is None:
        work = np.empty((2, rows << n), dtype=np.complex128)
    # a short batch takes the first rows << n elements of each half, so it stays contiguous
    cur, other = work[:, : rows << n].reshape(2, 1 << n, rows)
    cur[...] = states.T
    for step in layers:
        match step:
            case ("gather", inv, phase):
                np.take(cur, inv, axis=0, out=other, mode="clip")  # "raise" would buffer
                np.multiply(other, phase[:, None], out=cur)
            case ("swap", first):
                _swap_halves(cur, other, first)
                cur, other = other, cur
            case ("group", matrix, qubit):
                apply_block(matrix, cur, qubit, other)
                cur, other = other, cur
    return cur


def init_params(spec: AnsatzSpec, seed: int) -> np.ndarray:
    """I.i.d. uniform angles on (-pi, pi], seeded and reproducible."""
    rng = np.random.default_rng(seed)
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=spec.n_params)
