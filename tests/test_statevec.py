"""Simulator tests: gate semantics, norm/unitarity properties, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vqclass.errors import BindingError, ConfigError
from vqclass.statevec import (
    Circuit,
    GateOp,
    ParamSlot,
    StateVector,
    apply_gate,
    marginal_probabilities,
    probabilities,
    run_circuit,
    sample_counts,
    zero_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


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

    def test_binding_validation(self):
        c = Circuit(1, (GateOp("RY", (0,), ParamSlot(0)),), n_param_slots=1)
        with pytest.raises(BindingError):
            run_circuit(c, ())  # parameter missing
        with pytest.raises(BindingError):
            run_circuit(c, (0.3, 0.1))  # unexpected extra parameter

    def test_unbound_gate_application_rejected(self):
        with pytest.raises(BindingError):
            apply_gate(zero_state(1), GateOp("RY", (0,), ParamSlot(0)))

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
        assert np.array_equal(probabilities(zero_state(1)), [1, 0])

    def test_phase_is_ignored(self):
        s = StateVector(1, np.array([INV_SQRT2, 1j * INV_SQRT2]))
        np.testing.assert_allclose(probabilities(s), [0.5, 0.5], atol=1e-15)

    def test_random_state_recomputation(self):
        s = oracles.random_state(np.random.default_rng(9), 3)
        expect = np.array([abs(a) ** 2 for a in s.amplitudes])
        np.testing.assert_allclose(probabilities(s), expect, atol=1e-15)
        assert abs(probabilities(s).sum() - 1.0) < 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    def test_probabilities_sum_to_one(self, seed):
        s = oracles.random_state(np.random.default_rng(seed), 2)
        assert abs(probabilities(s).sum() - 1.0) < 1e-9


class TestSampling:
    def test_deterministic_state_deterministic_counts(self):
        s = zero_state(2)
        s.amplitudes[:] = [0, 1, 0, 0]  # |01>
        assert sample_counts(s, 1024, seed=0) == {"01": 1024}

    def test_binomial_concentration(self):
        s = apply_gate(zero_state(1), GateOp("H", (0,)))
        counts = sample_counts(s, 1024, seed=42)
        assert abs(counts.get("0", 0) - 512) <= 5 * np.sqrt(1024 * 0.25)

    def test_same_seed_identical(self):
        s = apply_gate(zero_state(2), GateOp("H", (0,)))
        assert sample_counts(s, 500, seed=17) == sample_counts(s, 500, seed=17)

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            sample_counts(zero_state(1), 0, seed=0)

    def test_bitstring_convention_qubit0_leftmost(self):
        s = apply_gate(zero_state(2), GateOp("RY", (0,), np.pi))  # |10>
        assert sample_counts(s, 16, seed=1) == {"10": 16}

    def test_measured_subset_marginalizes(self):
        s = apply_gate(zero_state(2), GateOp("RY", (0,), np.pi))  # |10>
        assert sample_counts(s, 8, seed=2, measured_qubits=[1]) == {"0": 8}
        assert sample_counts(s, 8, seed=2, measured_qubits=[0]) == {"1": 8}

    def test_total_variation_convergence(self):
        s = run_circuit(oracles.random_circuit(np.random.default_rng(23), 2, 8))
        p = probabilities(s)
        for shots in (256, 1024, 4096):
            tv = []
            for seed in range(20):
                counts = sample_counts(s, shots, seed=seed)
                emp = np.zeros(4)
                for bits, c in counts.items():
                    emp[int(bits, 2)] = c / shots
                tv.append(0.5 * np.abs(emp - p).sum())
            assert np.mean(tv) <= 5.0 / np.sqrt(shots)


class TestMarginals:
    def test_order_follows_measured_list(self):
        s = apply_gate(zero_state(2), GateOp("RY", (0,), np.pi))  # |10>
        np.testing.assert_allclose(marginal_probabilities(s, [0, 1]), [0, 0, 1, 0], atol=1e-30)
        np.testing.assert_allclose(marginal_probabilities(s, [1, 0]), [0, 1, 0, 0], atol=1e-30)

    def test_invalid_measured_lists(self):
        s = zero_state(2)
        with pytest.raises(ConfigError):
            marginal_probabilities(s, [])
        with pytest.raises(ConfigError):
            marginal_probabilities(s, [0, 0])
        with pytest.raises(ConfigError):
            marginal_probabilities(s, [2])


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
        with pytest.raises(ConfigError):
            Circuit(1, (GateOp("RY", (0,), ParamSlot(0)),), n_param_slots=0)

    def test_param_slot_validation(self):
        with pytest.raises(ConfigError):
            ParamSlot(-1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=4))
def test_random_circuit_norm_property(seed, n):
    rng = np.random.default_rng(seed)
    c = oracles.random_circuit(rng, n, int(rng.integers(1, 10)))
    assert abs(np.linalg.norm(run_circuit(c).amplitudes) - 1.0) < 1e-9
