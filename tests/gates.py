"""Single gates run through the package's own kernels, for tests that check
them against the dense matrices in ``oracles``: ``apply_block`` for H, the
ansatz's CY/CZ block gathers, and its first layer for RY and RZ.
``apply_block`` takes batches laid out batch-last, (2^n, N); these helpers
take and return one state per row, as the oracles do, and transpose around
the kernels. ``oracles`` itself stays free of the package."""

import numpy as np

from vqclass.ansatz import AnsatzSpec, apply_ansatz, block_gather, build_ansatz
from vqclass.statevec import apply_block

INV_SQRT2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]])  # real, as apply_block takes
ONE_QUBIT = AnsatzSpec(1, reps=1)


def batch_last(amps):
    """A C-contiguous (2^n, N) copy of states given one per row, the kernels' layout."""
    return np.array(np.transpose(amps), dtype=np.complex128, order="C")


def hadamard(amps, qubit):
    """``amps`` with H applied to ``qubit`` by the kernel, as a one-qubit block."""
    states = batch_last(amps)
    out = np.empty_like(states)
    apply_block(HADAMARD, states, qubit, out)
    return out.T


def link(amps, n, kind, control, target):
    """``amps`` after a one-link CY or CZ block, as the ansatz applies it."""
    inv, phase = block_gather(n, ((kind, (control, target)),))
    return np.asarray(amps, dtype=np.complex128)[..., inv] * phase


def rotate(amps, ry=0.0, rz=0.0):
    """One-qubit ``amps`` after RY(ry) then RZ(rz): the ansatz's first
    layer, its closing layer at angle zero, read out on the qubit."""
    layers = build_ansatz(ONE_QUBIT, [ry, rz, 0.0, 0.0], (0,))
    states = apply_ansatz(np.reshape(amps, (-1, 2)), ONE_QUBIT, layers)
    return states.T.reshape(np.shape(amps))


def matrix(gate, dim):
    """The matrix of ``gate`` (a batch of states in, a batch out), rebuilt
    column by column from its action on the basis states."""
    return gate(np.eye(dim, dtype=np.complex128)).T
