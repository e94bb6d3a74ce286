"""Trainable circuit: repeated RY/RZ rotation layers with CY/CZ links.

Each repetition applies an RY rotation to every qubit, then an RZ
rotation to every qubit, then an entangling block; a final RY+RZ layer
closes the circuit. Parameters are numbered layer-major, qubit-minor,
giving 2 * n_qubits * (reps + 1) in total: viewed as an array of shape
(reps + 1, 2, n_qubits), entry [r, 0, q] is the RY angle and [r, 1, q]
the RZ angle of qubit q in layer r. ``apply_ansatz`` runs the circuit
straight from that vector, one fused RZ(phi) RY(theta) matrix per qubit
and layer, on a whole batch of states.

The entangling block pairs neighbours (linear) or all pairs (full) and
alternates CY/CZ along the pair sequence: CY on even-position links, CZ
on odd.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BindingError, ConfigError
from .statevec import GateOp, apply_ops, apply_single

ENTANGLEMENTS = ("linear", "full")


@dataclass(frozen=True)
class AnsatzSpec:
    """Topology of the trainable circuit."""

    n_qubits: int
    reps: int = 2
    entanglement: str = "linear"

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ConfigError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.entanglement not in ENTANGLEMENTS:
            raise ConfigError(f"entanglement must be one of {ENTANGLEMENTS}")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)


def entangling_links(spec: AnsatzSpec) -> list[tuple[str, tuple[int, int]]]:
    """(gate kind, qubit pair) for each link of one entangling block."""
    n = spec.n_qubits
    if spec.entanglement == "linear":
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    return [("CY" if i % 2 == 0 else "CZ", pair) for i, pair in enumerate(pairs)]


@functools.lru_cache(maxsize=8)
def _entangler_block(spec: AnsatzSpec) -> tuple[GateOp, ...]:
    return tuple(GateOp(kind, pair) for kind, pair in entangling_links(spec))


def apply_ansatz(states: np.ndarray, spec: AnsatzSpec, params: Sequence[float]) -> None:
    """Advance a batch of states, shape (N, 2^n), in place through the ansatz
    with parameter vector ``params``."""
    n = spec.n_qubits
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise BindingError(f"expected {spec.n_params} parameters, got shape {params.shape}")
    for layer, (thetas, phis) in enumerate(params.reshape(spec.reps + 1, 2, n)):
        if layer:
            apply_ops(states, n, _entangler_block(spec))
        for q, (theta, phi) in enumerate(zip(thetas.tolist(), phis.tolist())):
            # RZ(phi) RY(theta) = [[e^-i phi/2 c, -e^-i phi/2 s], [e^i phi/2 s, e^i phi/2 c]]
            c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
            z = cmath.exp(-0.5j * phi)
            apply_single(states, n, q, ((z * c, -z * s), (z.conjugate() * s, z.conjugate() * c)))


def init_params(spec: AnsatzSpec, seed: int) -> np.ndarray:
    """I.i.d. uniform angles on (-pi, pi], seeded and reproducible."""
    rng = np.random.default_rng(seed)
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=spec.n_params)

