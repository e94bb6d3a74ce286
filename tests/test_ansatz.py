"""Ansatz tests: layer structure, parameter handling, unitary properties."""

import numpy as np
import pytest

import oracles
from vqclass.ansatz import AnsatzSpec, build_ansatz, entangling_links, init_params
from vqclass.errors import BindingError, ConfigError
from vqclass.featmap import FeatureMapSpec, encode
from vqclass.statevec import GateOp, ParamSlot, apply_gate, apply_ops, run_circuit
from vqclass.vqc import VqcConfig, p_ad, predict_batch


def apply_ansatz(state, spec, params):
    """Advance ``state`` in place through the ansatz with ``params`` bound."""
    apply_ops(state.amplitudes, spec.n_qubits, build_ansatz(spec).ops, params)
    return state


def op_shape(op):
    slot = op.angle.index if isinstance(op.angle, ParamSlot) else None
    return (op.kind, op.qubits, slot)


class TestStructure:
    def test_two_qubit_one_rep_sequence(self):
        c = build_ansatz(AnsatzSpec(2, reps=1, entanglement="linear"))
        assert [op_shape(o) for o in c.ops] == [
            ("RY", (0,), 0),
            ("RY", (1,), 1),
            ("RZ", (0,), 2),
            ("RZ", (1,), 3),
            ("CY", (0, 1), None),
            ("RY", (0,), 4),
            ("RY", (1,), 5),
            ("RZ", (0,), 6),
            ("RZ", (1,), 7),
        ]
        assert c.n_param_slots == 8

    def test_param_count_formula(self):
        assert AnsatzSpec(5, reps=2).n_params == 30
        assert AnsatzSpec(2, reps=1).n_params == 8

    def test_linear_chain_alternates_cy_cz(self):
        links = entangling_links(AnsatzSpec(5, reps=1, entanglement="linear"))
        assert links == [("CY", (0, 1)), ("CZ", (1, 2)), ("CY", (2, 3)), ("CZ", (3, 4))]

    def test_full_entanglement_pairs(self):
        links = entangling_links(AnsatzSpec(3, reps=1, entanglement="full"))
        assert links == [("CY", (0, 1)), ("CZ", (0, 2)), ("CY", (1, 2))]

    def test_entangler_override(self):
        spec = AnsatzSpec(3, reps=1, entanglement="linear", entanglers=("CZ", "CZ"))
        assert entangling_links(spec) == [("CZ", (0, 1)), ("CZ", (1, 2))]

    def test_entangler_override_validation(self):
        with pytest.raises(ConfigError):
            AnsatzSpec(3, reps=1, entanglement="linear", entanglers=("CZ",))
        with pytest.raises(ConfigError):
            AnsatzSpec(3, reps=1, entanglement="linear", entanglers=("CZ", "CX"))


class TestApplication:
    def test_zero_params_identity_on_zero_state(self):
        s = run_circuit(build_ansatz(AnsatzSpec(2, reps=1)), np.zeros(8))
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_zero_params_single_qubit_leaves_any_state(self):
        s = oracles.random_state(np.random.default_rng(0), 1)
        before = s.amplitudes.copy()
        apply_ansatz(s, AnsatzSpec(1, reps=1), np.zeros(4))
        np.testing.assert_allclose(s.amplitudes, before, atol=1e-15)

    def test_first_param_is_ry_on_qubit0(self):
        # RY(pi) flips qubit 0; the CY entangler then maps |10> to i|11>
        params = np.zeros(8)
        params[0] = np.pi
        s = run_circuit(build_ansatz(AnsatzSpec(2, reps=1)), params)
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1j], atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        spec = AnsatzSpec(3, reps=2)
        c = build_ansatz(spec)
        for _ in range(5):
            params = rng.uniform(-np.pi, np.pi, spec.n_params)
            s = run_circuit(c, params)
            expect = oracles.run_circuit_dense(c, params=params)
            np.testing.assert_allclose(s.amplitudes, expect, atol=1e-12)

    def test_param_length_mismatch(self):
        cfg = VqcConfig(feature_map=FeatureMapSpec(2), ansatz=AnsatzSpec(2, reps=1))
        states = encode([[0.1, 0.2]], cfg.feature_map)
        with pytest.raises(BindingError):
            p_ad(states, np.zeros(7), cfg)
        with pytest.raises(BindingError):
            p_ad(states, np.zeros(9), cfg)
        with pytest.raises(BindingError):
            run_circuit(build_ansatz(cfg.ansatz), np.zeros(7))

    def test_state_size_mismatch(self):
        cfg = VqcConfig(feature_map=FeatureMapSpec(2), ansatz=AnsatzSpec(2, reps=1))
        states = encode([[0.1, 0.2, 0.3]], FeatureMapSpec(3))
        with pytest.raises(BindingError):
            p_ad(states, np.zeros(8), cfg)


class TestInitParams:
    def test_deterministic(self):
        spec = AnsatzSpec(5, reps=2)
        assert np.array_equal(init_params(spec, 42), init_params(spec, 42))

    def test_length(self):
        assert init_params(AnsatzSpec(5, reps=2), 0).size == 30

    def test_range_half_open(self):
        draws = init_params(AnsatzSpec(4, reps=20), 3)
        assert np.all(draws > -np.pi)
        assert np.all(draws <= np.pi)

    def test_mean_near_zero(self):
        spec = AnsatzSpec(10, reps=499)  # 10^4 params in one draw
        draws = init_params(spec, 123)
        assert draws.size == 10_000
        assert abs(draws.mean()) < 0.05


class TestUnitaryProperties:
    def test_norm_preserved_1000_draws(self):
        worst = 0.0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            spec = AnsatzSpec(n, reps=int(rng.integers(1, 4)))
            params = rng.uniform(-np.pi, np.pi, spec.n_params)
            s = oracles.random_state(rng, n)
            apply_ansatz(s, spec, params)
            worst = max(worst, abs(np.linalg.norm(s.amplitudes) - 1.0))
        assert worst < 1e-10

    def test_inverse_composition_returns_start(self):
        rng = np.random.default_rng(77)
        spec = AnsatzSpec(3, reps=2)
        circuit = build_ansatz(spec)
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        s = oracles.random_state(rng, 3)
        before = s.amplitudes.copy()
        apply_ops(s.amplitudes, 3, circuit.ops, params)
        for op in reversed(circuit.ops):
            if isinstance(op.angle, ParamSlot):
                apply_gate(s, GateOp(op.kind, op.qubits, -params[op.angle.index]))
            else:
                apply_gate(s, op)  # CY/CZ are self-inverse
        np.testing.assert_allclose(s.amplitudes, before, atol=1e-10)

    def test_parameter_shift_identity(self):
        # rotation-gate shift rule: dE/dt = (E(t + pi/2) - E(t - pi/2)) / 2
        spec = AnsatzSpec(2, reps=1)
        fmap = FeatureMapSpec(2, 1, "full")
        cfg = VqcConfig(feature_map=fmap, ansatz=spec)
        rng = np.random.default_rng(10)
        base = rng.uniform(-np.pi, np.pi, spec.n_params)
        x = [0.35, 0.6]

        def expectation(params):
            p = predict_batch([x], params, cfg)[0].p_ad
            return 2.0 * p - 1.0  # parity observable expectation

        h = 1e-5
        for i in (0, 3, 5):
            plus = base.copy()
            minus = base.copy()
            plus[i] += h
            minus[i] -= h
            fd = (expectation(plus) - expectation(minus)) / (2 * h)
            plus_s = base.copy()
            minus_s = base.copy()
            plus_s[i] += np.pi / 2
            minus_s[i] -= np.pi / 2
            shift = (expectation(plus_s) - expectation(minus_s)) / 2
            assert fd == pytest.approx(shift, abs=1e-4)
