"""Simulator tests: gate semantics, norm/unitarity properties, and the
outcome probabilities and shot sampling that the parity readout
(``vqc.readout``) takes from a state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vqclass.ansatz import AnsatzSpec
from vqclass.errors import ConfigError
from vqclass.featmap import FeatureMapSpec
from vqclass.statevec import Circuit, GateOp, apply_gate, run_circuit, zero_state
from vqclass.vqc import VqcConfig, readout as vqc_readout

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def readout_cfg(n, measured, shots=None, seed=0):
    return VqcConfig(
        FeatureMapSpec(n), AnsatzSpec(n), measured_qubits=measured, shots=shots, seed=seed
    )


def readout(amps, measured, shots=None, seed=0):
    """Even-parity mass on ``measured`` of each state (row of ``amps``),
    exact or as the frequency of ``shots`` seeded samples."""
    amps = np.atleast_2d(np.asarray(amps, dtype=np.complex128))
    n = int(amps.shape[1]).bit_length() - 1
    return vqc_readout(amps, readout_cfg(n, measured, shots, seed))


def parity_masses(amps, measured):
    """(even, odd) parity mass by enumerating every basis outcome."""
    n = int(len(amps)).bit_length() - 1
    masses = [0.0, 0.0]
    for idx, a in enumerate(amps):
        bits = format(idx, f"0{n}b")
        masses[sum(int(bits[q]) for q in measured) % 2] += abs(a) ** 2
    return tuple(masses)


class TestZeroState:
    def test_one_qubit(self):
        assert np.array_equal(zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_cap_enforced(self):
        with pytest.raises(ConfigError):
            zero_state(25)
        with pytest.raises(ConfigError):
            zero_state(0)


class TestGateSemantics:
    def test_hadamard_on_zero(self):
        s = apply_gate(zero_state(1), GateOp("H", (0,)))
        np.testing.assert_allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_cz_flips_sign_of_11(self):
        s = zero_state(2)
        s.amplitudes[:] = [0, 0, 0, 1]  # |11>
        apply_gate(s, GateOp("CZ", (0, 1)))
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, -1], atol=1e-15)

    def test_cy_on_10_gives_i_11(self):
        s = zero_state(2)
        s.amplitudes[:] = [0, 0, 1, 0]  # |10>: control qubit 0 set
        apply_gate(s, GateOp("CY", (0, 1)))
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1j], atol=1e-15)

    def test_ry_half_pi(self):
        s = apply_gate(zero_state(1), GateOp("RY", (0,), np.pi / 2))
        np.testing.assert_allclose(
            s.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15
        )

    def test_phase_gate_only_touches_one(self):
        s = zero_state(1)
        s.amplitudes[:] = [INV_SQRT2, INV_SQRT2]
        apply_gate(s, GateOp("P", (0,), np.pi))
        np.testing.assert_allclose(s.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-12)

    @pytest.mark.parametrize("kind", ["CX", "CY", "CZ"])
    def test_two_qubit_matrix_any_qubit_order(self, kind):
        # matrix reconstructed from action on basis states, control listed first
        u = {"CX": oracles.CX_MAT, "CY": oracles.CY_MAT, "CZ": oracles.CZ_MAT}[kind]
        for control, target in [(0, 1), (1, 0), (0, 2), (2, 0)]:
            n = max(control, target) + 1
            expect = oracles.embed_controlled(
                u[2:, 2:], control, target, n
            )  # lower-right block is the controlled unitary
            got = np.zeros((1 << n, 1 << n), dtype=np.complex128)
            for col in range(1 << n):
                s = zero_state(n)
                s.amplitudes[:] = 0
                s.amplitudes[col] = 1
                apply_gate(s, GateOp(kind, (control, target)))
                got[:, col] = s.amplitudes
            np.testing.assert_allclose(got, expect, atol=1e-15)


class TestMatrixFidelity:
    """Action on basis states reconstructs the canonical matrices exactly."""

    def test_fixed_gates(self):
        for kind, mat in [("H", oracles.H_MAT)]:
            got = self._reconstruct_single(kind, None)
            assert np.max(np.abs(got - mat)) < 1e-15
        for kind, mat in [
            ("CX", oracles.CX_MAT),
            ("CY", oracles.CY_MAT),
            ("CZ", oracles.CZ_MAT),
        ]:
            got = self._reconstruct_pair(kind)
            assert np.max(np.abs(got - mat)) < 1e-15

    def test_rotation_gates_random_angles(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=25):
            for kind, mat in [
                ("RY", oracles.ry_mat(theta)),
                ("RZ", oracles.rz_mat(theta)),
                ("P", oracles.p_mat(theta)),
            ]:
                got = self._reconstruct_single(kind, theta)
                assert np.max(np.abs(got - mat)) < 1e-15

    @staticmethod
    def _reconstruct_single(kind, angle):
        got = np.zeros((2, 2), dtype=np.complex128)
        for col in range(2):
            s = zero_state(1)
            s.amplitudes[:] = 0
            s.amplitudes[col] = 1
            apply_gate(s, GateOp(kind, (0,), angle))
            got[:, col] = s.amplitudes
        return got

    @staticmethod
    def _reconstruct_pair(kind):
        got = np.zeros((4, 4), dtype=np.complex128)
        for col in range(4):
            s = zero_state(2)
            s.amplitudes[:] = 0
            s.amplitudes[col] = 1
            apply_gate(s, GateOp(kind, (0, 1)))
            got[:, col] = s.amplitudes
        return got


class TestRunCircuit:
    def test_empty_circuit_identity(self):
        s = run_circuit(Circuit(2, ()))
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_h_then_trivial_cz(self):
        c = Circuit(2, (GateOp("H", (0,)), GateOp("CZ", (0, 1))))
        np.testing.assert_allclose(
            run_circuit(c).amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15
        )

    def test_h_h_cz_matches_dense_oracle(self):
        c = Circuit(2, (GateOp("H", (0,)), GateOp("H", (1,)), GateOp("CZ", (0, 1))))
        s = run_circuit(c)
        np.testing.assert_allclose(s.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(s.amplitudes, oracles.run_circuit_dense(c), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        c = oracles.random_circuit(rng, 3, 12)
        a = run_circuit(c).amplitudes
        b = run_circuit(c).amplitudes
        assert np.array_equal(a, b)


class TestOracleEquivalence:
    def test_random_circuits_match_dense_path(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            c = oracles.random_circuit(rng, n, int(rng.integers(1, 16)))
            got = run_circuit(c).amplitudes
            expect = oracles.run_circuit_dense(c)
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_batched_application_matches_per_state(self):
        from vqclass.statevec import apply_ops

        rng = np.random.default_rng(11)
        c = oracles.random_circuit(rng, 3, 10)
        states = np.stack(
            [oracles.random_state(np.random.default_rng(100 + i), 3).amplitudes for i in range(6)]
        )
        batched = states.copy()
        apply_ops(batched, 3, c.ops)
        for i in range(6):
            single = states[i].copy()
            apply_ops(single, 3, c.ops)
            assert np.array_equal(batched[i], single)


class TestNormAndUnitarity:
    def test_norm_preserved_over_1000_random_circuits(self):
        worst = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            c = oracles.random_circuit(rng, n, int(rng.integers(1, 13)))
            norm = np.linalg.norm(run_circuit(c).amplitudes)
            worst = max(worst, abs(norm - 1.0))
        assert worst < 1e-9

    def test_gate_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        theta = 1.234
        cases = [
            (GateOp("H", (0,)), GateOp("H", (0,))),
            (GateOp("CX", (0, 1)), GateOp("CX", (0, 1))),
            (GateOp("CZ", (0, 1)), GateOp("CZ", (0, 1))),
            (GateOp("CY", (0, 1)), GateOp("CY", (0, 1))),  # CY is self-inverse
            (GateOp("RY", (0,), theta), GateOp("RY", (0,), -theta)),
            (GateOp("RZ", (1,), theta), GateOp("RZ", (1,), -theta)),
            (GateOp("P", (1,), theta), GateOp("P", (1,), -theta)),
        ]
        for fwd, inv in cases:
            s = oracles.random_state(rng, 2)
            before = s.amplitudes.copy()
            apply_gate(apply_gate(s, fwd), inv)
            np.testing.assert_allclose(s.amplitudes, before, atol=1e-12)


class TestProbabilities:
    def test_basis_state(self):
        assert np.array_equal(readout(np.eye(2), (0,)), [1, 0])

    def test_phase_is_ignored(self):
        np.testing.assert_allclose(readout([INV_SQRT2, 1j * INV_SQRT2], (0,)), [0.5], atol=1e-15)

    def test_random_state_recomputation(self):
        s = oracles.random_state(np.random.default_rng(9), 3)
        even, odd = parity_masses(s.amplitudes, (0, 1, 2))
        np.testing.assert_allclose(readout(s.amplitudes, (0, 1, 2)), [even], atol=1e-15)
        assert abs(readout(s.amplitudes, (0, 1, 2))[0] + odd - 1.0) < 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    def test_probabilities_sum_to_one(self, seed):
        s = oracles.random_state(np.random.default_rng(seed), 2)
        _, odd = parity_masses(s.amplitudes, (0, 1))
        assert abs(readout(s.amplitudes, (0, 1))[0] + odd - 1.0) < 1e-9


class TestSampling:
    def test_deterministic_state_deterministic_counts(self):
        s = zero_state(2)
        s.amplitudes[:] = [0, 1, 0, 0]  # |01>
        assert readout(s.amplitudes, (0, 1), shots=1024, seed=0).tolist() == [0.0]
        assert readout(s.amplitudes, (0,), shots=1024, seed=0).tolist() == [1.0]

    def test_binomial_concentration(self):
        s = apply_gate(zero_state(1), GateOp("H", (0,)))
        even = readout(s.amplitudes, (0,), shots=1024, seed=42)[0] * 1024
        assert abs(even - 512) <= 5 * np.sqrt(1024 * 0.25)

    def test_same_seed_identical(self):
        s = apply_gate(zero_state(2), GateOp("H", (0,)))
        a = readout(s.amplitudes, (0, 1), shots=500, seed=17)
        assert np.array_equal(a, readout(s.amplitudes, (0, 1), shots=500, seed=17))

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            readout_cfg(1, (0,), shots=0)

    def test_bitstring_convention_qubit0_leftmost(self):
        s = apply_gate(zero_state(2), GateOp("RY", (0,), np.pi))  # |10>
        assert readout(s.amplitudes, (0, 1), shots=16, seed=1).tolist() == [0.0]
        np.testing.assert_allclose(s.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_measured_subset_marginalizes(self):
        s = apply_gate(zero_state(2), GateOp("RY", (0,), np.pi))  # |10>
        assert readout(s.amplitudes, (1,), shots=8, seed=2).tolist() == [1.0]
        assert readout(s.amplitudes, (0,), shots=8, seed=2).tolist() == [0.0]

    def test_total_variation_convergence(self):
        s = run_circuit(oracles.random_circuit(np.random.default_rng(23), 2, 8))
        p = readout(s.amplitudes, (0, 1))[0]
        for shots in (256, 1024, 4096):
            # even/odd total variation is |frequency - p|
            tv = [abs(readout(s.amplitudes, (0, 1), shots, seed)[0] - p) for seed in range(20)]
            assert np.mean(tv) <= 5.0 / np.sqrt(shots)


class TestMarginals:
    def test_invalid_measured_lists(self):
        with pytest.raises(ConfigError):
            readout_cfg(2, ())
        with pytest.raises(ConfigError):
            readout_cfg(2, (0, 0))
        with pytest.raises(ConfigError):
            readout_cfg(2, (2,))


class TestGateOpValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            GateOp("SWAP", (0, 1))

    def test_wrong_arity(self):
        with pytest.raises(ConfigError):
            GateOp("H", (0, 1))
        with pytest.raises(ConfigError):
            GateOp("CX", (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(ConfigError):
            GateOp("CZ", (1, 1))

    def test_angle_presence(self):
        with pytest.raises(ConfigError):
            GateOp("RY", (0,))
        with pytest.raises(ConfigError):
            GateOp("H", (0,), 0.5)

    def test_circuit_rejects_out_of_range_ops(self):
        with pytest.raises(ConfigError):
            Circuit(1, (GateOp("H", (1,)),))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=4))
def test_random_circuit_norm_property(seed, n):
    rng = np.random.default_rng(seed)
    c = oracles.random_circuit(rng, n, int(rng.integers(1, 10)))
    assert abs(np.linalg.norm(run_circuit(c).amplitudes) - 1.0) < 1e-9
