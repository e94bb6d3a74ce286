"""Trainable circuit: repeated RY/RZ rotation layers with CY/CZ entanglers.

Each repetition applies an RY rotation to every qubit, then an RZ
rotation to every qubit, then an entangling block; a final RY+RZ layer
closes the circuit. Parameter slots are numbered layer-major,
qubit-minor, giving 2 * n_qubits * (reps + 1) parameters in total.

The entangling block pairs neighbours (linear) or all pairs (full) and
alternates CY/CZ along the pair sequence: CY on even-position links, CZ
on odd. The per-link gate kinds can be overridden via ``entanglers``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .statevec import Circuit, GateOp, ParamSlot

ENTANGLEMENTS = ("linear", "full")
ENTANGLER_KINDS = ("CY", "CZ")


@dataclass(frozen=True)
class AnsatzSpec:
    """Topology of the trainable circuit."""

    n_qubits: int
    reps: int = 2
    entanglement: str = "linear"
    entanglers: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ConfigError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.entanglement not in ENTANGLEMENTS:
            raise ConfigError(f"entanglement must be one of {ENTANGLEMENTS}")
        if self.entanglers is not None:
            object.__setattr__(self, "entanglers", tuple(self.entanglers))
            n_links = len(_link_pairs(self.n_qubits, self.entanglement))
            if len(self.entanglers) != n_links:
                raise ConfigError(
                    f"entanglers must list {n_links} gate kinds, got {len(self.entanglers)}"
                )
            for kind in self.entanglers:
                if kind not in ENTANGLER_KINDS:
                    raise ConfigError(f"entangler kind must be CY or CZ, got {kind!r}")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * (self.reps + 1)


def _link_pairs(n_qubits: int, entanglement: str) -> list[tuple[int, int]]:
    if entanglement == "linear":
        return [(i, i + 1) for i in range(n_qubits - 1)]
    return list(itertools.combinations(range(n_qubits), 2))


def entangling_links(spec: AnsatzSpec) -> list[tuple[str, tuple[int, int]]]:
    """(gate kind, qubit pair) for each link of one entangling block."""
    pairs = _link_pairs(spec.n_qubits, spec.entanglement)
    if spec.entanglers is not None:
        return list(zip(spec.entanglers, pairs))
    return [("CY" if i % 2 == 0 else "CZ", pair) for i, pair in enumerate(pairs)]


def build_ansatz(spec: AnsatzSpec) -> Circuit:
    """Layered trainable circuit with symbolic parameter slots."""
    links = entangling_links(spec)
    ops: list[GateOp] = []
    slot = itertools.count()

    def rotation_layer(kind: str) -> None:
        ops.extend(GateOp(kind, (q,), ParamSlot(next(slot))) for q in range(spec.n_qubits))

    for _ in range(spec.reps):
        rotation_layer("RY")
        rotation_layer("RZ")
        ops.extend(GateOp(kind, pair) for kind, pair in links)
    rotation_layer("RY")
    rotation_layer("RZ")
    return Circuit(spec.n_qubits, tuple(ops), n_param_slots=spec.n_params)


def init_params(spec: AnsatzSpec, seed: int) -> np.ndarray:
    """I.i.d. uniform angles on (-pi, pi], seeded and reproducible."""
    rng = np.random.default_rng(seed)
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=spec.n_params)

