"""The reference implementations stay independent of the package."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_vqclass():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "vqclass"] == []


def test_gate_by_gate_matches_dense_unitary():
    # run_gates, which the n = 6..12 checks use, against the dense product at n = 4
    import numpy as np

    import oracles

    class Spec:  # specs are read by duck typing
        n_qubits, reps, entanglement = 4, 2, "full"

    rng = np.random.default_rng(4)
    circuit = oracles.ansatz_circuit(Spec, rng.uniform(-np.pi, np.pi, 24))
    circuit = circuit._replace(ops=oracles.feature_map_circuit([0.2, 0.9, 0.4, 0.6], Spec).ops
                               + circuit.ops)
    states = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    expect = states @ oracles.circuit_unitary(circuit).T
    np.testing.assert_allclose(oracles.run_gates(circuit, states), expect, rtol=0, atol=1e-12)
