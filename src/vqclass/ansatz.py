"""Trainable circuit: repeated RY/RZ rotation layers with CY/CZ links.

Each repetition applies an RY rotation to every qubit, then an RZ
rotation to every qubit, then an entangling block; a final RY+RZ layer
closes the circuit. Parameters are numbered layer-major, qubit-minor,
giving 2 * n_qubits * (reps + 1) in total: viewed as an array of shape
(reps + 1, 2, n_qubits), entry [r, 0, q] is the RY angle and [r, 1, q]
the RZ angle of qubit q in layer r. ``_light_cone`` plans the circuit once
per topology and measured set, as one run-order list of steps (swaps,
rotation groups, gathers and phases), and decides there every swap and the
layout each step reads. ``build_ansatz`` binds the vector into those steps:
each layer's RY(theta) rotations become one real matrix per group of GROUP
adjacent qubits (gate fusion, as in qsim: Isakov et al., arXiv:2111.02396),
run as a float64 product on the states' float view; a last group short of
GROUP qubits reaches back over the one before, with the identity there, so
every product is 8x8 from n = 3 on. A layer's RZs make one diagonal over
the 2^n basis states, folded into the phase of the gather that opens the
next layer (below). ``apply_ansatz`` runs the bound steps in one flat loop
on states given one per row (``vqc.p_ad`` binds them once per call and
hands over one row block at a time) and returns them batch-last.

A product on qubits [q0, q0 + 3) of batch-last amplitudes is a stack of
2^q0 products, each 2^(n - q0 - 3) times the batch wide, so a group near
the end of the register would run as many narrow products. With h = n // 2,
groups with q0 < h run in place; before a layer's first live group with
q0 >= h, one transposing copy moves the register's first h qubits after the
rest (the cache-blocking qubit swap of Haener and Steiger, SC17,
arXiv:1704.01127), and those groups run at q0 - h. The next entangling
gather reads straight from the swapped layout, its index composed with the
swap once and cached; a plan that ends swapped ends with one more copy, the
swap back.

The entangling block pairs neighbours (linear) or all pairs (full) and
alternates CY/CZ along the pair sequence: CY on even-position links, CZ
on odd. A block sends each basis state to one basis state times a phase
in {1, -1, i, -i}, so it runs as one gather (an index array and a phase
vector, built once per block), bit-identical to applying its links
one by one. A gather computes out[b] = in[inv[b]] * phase[b], so the RZ
diagonal D of the layer before it rides along in the phase:
phase[b] * D[inv[b]], with D built in the layout the register is in there
(``inv`` is composed with the swap). Where no gather follows a live RZ
layer (n = 1, whose block has no link; the final layer when every gate is
kept) D runs as a phase step of its own.

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
from .statevec import COUNT_BYTES, MAX_QUBITS, apply_block, physical_memory

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
                              f"at {COUNT_BYTES} B per parameter plus its gather and phase tables")
        if self.entanglement not in ENTANGLEMENTS:
            raise ConfigError(f"entanglement must be one of {ENTANGLEMENTS}")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)

    @property
    def table_bytes(self) -> int:
        """Bytes of the tables ``vqc.p_ad`` caches or binds, whatever the batch: per basis
        state, 24 B per distinct gather (<= min(reps, n); <= 2 with full entanglement, whose
        first block back from the readout reaches every qubit), 8 B of mask, 32 B of build,
        and 16 B per RZ phase vector a call binds: one per layer after the first, one more
        for the RZ diagonal that the step being built reads or, with every gate kept, the
        last layer's. A gather is cached either plain or composed with the half-register
        swap, never both: whether its input is swapped follows from its links (see
        ``_light_cone``)."""
        gathers = min(self.reps, 2 if self.entanglement == "full" else self.n_qubits)
        return (24 * gathers + 16 * (self.reps + 1) + 40) << self.n_qubits


def entangling_links(spec: AnsatzSpec) -> list[tuple[str, tuple[int, int]]]:
    """(gate kind, qubit pair) for each link of one entangling block."""
    return [("CY" if i % 2 == 0 else "CZ", p) for i, p in enumerate(entangled_pairs(spec))]


@functools.lru_cache(maxsize=16)
def block_gather(n: int, links: tuple, swapped: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(inv, phase) such that applying ``links`` in order to states of n
    qubits, shape (..., 2^n), gives ``states[..., inv] * phase``. With ``swapped``,
    ``inv`` reads states held with their first n // 2 qubits after the rest, as
    ``apply_ansatz`` leaves them after its swap, and the result is in plain order."""
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


@functools.lru_cache(maxsize=16)
def _light_cone(spec: AnsatzSpec, measured: tuple[int, ...] | None) -> tuple[list, np.ndarray]:
    """The ansatz as (steps, factors). ``factors``, (layers, 2, n) and read-only, halves
    live RY and RZ angles and zeros dead ones; ``measured`` None keeps every gate. The
    steps, in run order: ("swap", first) moves the register's ``first`` leading qubits
    after the rest; ("group", layer, g, qubit) runs group g's RY product of ``layer`` from
    ``qubit`` of the layout the register is in; ("phase", layer, swapped) runs the RZ
    diagonal of ``layer`` alone, and ("gather", layer, swapped, inv, phase) the gather of
    the live links of the block after it with that diagonal folded in; both read the
    layout ``swapped`` records, and a gather leaves the register plain. From n = 2 on
    every qubit in a cone has a link, so every layer after the first opens with a
    gather; and the cone before a gather is the qubits of its links, so whether it reads
    swapped states follows from its links and each gather is cached in one form."""
    n, h = spec.n_qubits, spec.n_qubits // 2
    cone = set(range(n) if measured is None else measured)
    backward = []
    for layer in range(spec.reps, -1, -1):
        groups = sorted({q // GROUP for q in cone})
        rz = 0.5 * (measured is None or layer < spec.reps)  # the last RZs precede a Z readout
        half = np.outer([0.5, rz], np.isin(range(n), list(cone)))
        live = []
        for kind, (a, b) in reversed(entangling_links(spec) if layer else []):
            if a in cone or b in cone:
                live.append((kind, (a, b)))
                cone.update((a, b))
        backward.append((tuple(live[::-1]), groups, half))
    steps, swapped = [], False
    for layer, (live, groups, _) in enumerate(reversed(backward)):
        if live:
            steps.append(("gather", layer - 1, swapped, *block_gather(n, live, swapped)))
            swapped = False
        elif layer:
            steps.append(("phase", layer - 1, swapped))
        for g in groups:
            q0 = min(g * GROUP, n - min(GROUP, n))
            high = 0 < h <= q0
            if high and not swapped:
                steps.append(("swap", h))
                swapped = True
            steps.append(("group", layer, g, q0 - h if high else q0))
    if measured is None:  # else the last RZs, diagonal before the readout, are dead
        steps.append(("phase", spec.reps, swapped))
    if swapped:
        steps.append(("swap", n - h))
    factors = np.stack([half for _, _, half in reversed(backward)])
    factors.flags.writeable = False
    return steps, factors


@functools.cache  # built on first use: at import it raised a kernel run's peak RSS by 1 MB
def _group_tables(n: int) -> tuple[np.ndarray, ...]:
    """Group g's k = min(GROUP, n) qubits [q0, q0 + k), q0 = min(g * GROUP, n - k), [g, j],
    and whether g owns each (it lies in [g * GROUP, n)); which of qubit j's (cos, sin, -sin)
    RY puts at row r, column c of a group's matrix, [j, r, c]."""
    k, start = min(GROUP, n), np.arange(0, n, GROUP)[:, None]
    qubit = np.minimum(start, n - k) + np.arange(k)
    bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    entry = np.array([[0, 2], [1, 0]])[bits[..., None], bits[:, None]]
    return qubit, qubit >= start, 3 * np.arange(k)[:, None, None] + entry


def _rotation_layers(half: np.ndarray):
    """Per layer r of the RY half angles ``half``, (layers, n), each group's real 2^k x 2^k
    matrix: the Kronecker product of the RY(2 * half[r, q]) 2x2s of its qubits, products of
    cosines and sines, with the identity on those it does not own."""
    qubit, owned, ry_entry = _group_tables(half.shape[-1])
    for first in range(0, len(half), BUILD_LAYERS):
        part = half[first : first + BUILD_LAYERS][..., qubit] * owned
        trig = np.empty((*part.shape, 3))  # cos, sin, -sin
        np.cos(part, out=trig[..., 0])
        np.negative(np.sin(part, out=trig[..., 1]), out=trig[..., 2])
        entries = np.take(trig.reshape(len(part), len(qubit), -1), ry_entry, axis=-1)
        yield from entries.prod(axis=2)


@functools.cache
def _factor_index(n: int, swapped: bool) -> tuple[np.ndarray, np.ndarray]:
    """For the leading and the trailing half of the register's layout (with ``swapped``,
    qubits n // 2 .. n - 1 lead), [b, j]: where the factor of the half's qubit j for its
    basis state b sits in the flat (n, 2) table of each qubit's factors for bit 0 and 1."""
    h = n // 2
    index = []
    for lo, hi in ((h, n), (0, h)) if swapped else ((0, h), (h, n)):
        bits = (np.arange(1 << (hi - lo))[:, None] >> np.arange(hi - lo - 1, -1, -1)) & 1
        index.append(2 * np.arange(lo, hi) + bits)
    return index[0], index[1]


def _rz_diagonal(half: np.ndarray, swapped: bool) -> np.ndarray:
    """The 2^n diagonal of RZ(2 * half[q]) on every qubit q, RZ(phi) = diag(e^(-i phi / 2),
    e^(i phi / 2)), over the basis states in plain order or, ``swapped``, with the first
    n // 2 qubits after the rest: for each half of the layout, the products of its
    qubits' factors (no angle is summed), then the outer product of the two halves."""
    factors = np.exp(np.multiply.outer(half, [-1j, 1j])).ravel()
    lead, trail = _factor_index(len(half), swapped)
    return np.multiply.outer(factors[lead].prod(axis=1), factors[trail].prod(axis=1)).ravel()


def build_ansatz(spec: AnsatzSpec, params: Sequence[float], measured_qubits=None) -> list:
    """The steps of the ansatz with parameter vector ``params`` bound, for ``apply_ansatz``,
    in run order: ("swap", first); ("group", real RY matrix, start qubit); ("phase", RZ
    diagonal); ("gather", inv, phase), which sends the amplitude at b to in[inv[b]] *
    phase[b], the entangling block's phase times the layer before's RZ diagonal read
    through ``inv``. Each diagonal is built in the layout the register is in when it
    runs. Given ``measured_qubits``, only the gates in their light cone are kept."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise BindingError(f"expected {spec.n_params} parameters, got shape {params.shape}")
    if not np.isfinite(params).all():
        raise BindingError("parameters must be finite")
    steps, factors = _light_cone(spec, None if measured_qubits is None else tuple(measured_qubits))
    half = params.reshape(-1, 2, spec.n_qubits) * factors
    mats = list(_rotation_layers(half[:, 0]))
    bound = []
    for step in steps:
        match step:
            case ("group", layer, g, qubit):
                step = "group", mats[layer][g], qubit
            case ("phase", layer, swapped):
                step = "phase", _rz_diagonal(half[layer, 1], swapped)
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
    ``layers`` from ``build_ansatz``; return them batch-last, (2^n, N), a view into ``work``.
    ``states`` is not written. With a light cone, the result holds the right probabilities
    on the measured qubits, not the full final state. The rows are copied in transposed,
    into the first half of ``work``, complex (2, >= N << n) and allocated if not given; each
    rotation group and swap writes into the other half, then the halves trade places; a
    gather reads into the other half and its phase multiplies back, and a phase step runs
    in place. Every product is a real GEMM at most ``GEMM_WIDTH`` floats wide, so a row's
    result does not depend on N."""
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
            case ("phase", diag):
                cur *= diag[:, None]
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
