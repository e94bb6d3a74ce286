"""Feature map tests: structure and encoding."""

import numpy as np
import pytest

import oracles
from vqclass.errors import ConfigError, EncodingError
from vqclass.featmap import FeatureMapSpec, encode, entangled_pairs

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def op_shape(op):
    """Structural view of a gate op of the gate-level reference circuit."""
    return (op.kind, op.qubits)


class TestStructure:
    # the gate-level reference circuit in oracles.py must be the circuit
    # the closed-form encoder claims to evaluate

    def test_single_qubit_has_no_pair_terms(self):
        assert entangled_pairs(FeatureMapSpec(1, 1)) == []
        c = oracles.feature_map_circuit([0.5], FeatureMapSpec(1, 1))
        assert [op_shape(o) for o in c.ops] == [("H", (0,)), ("P", (0,))]

    def test_two_qubit_full_gate_count(self):
        c = oracles.feature_map_circuit([0.1, 0.2], FeatureMapSpec(2, 1, "full"))
        assert len(c.ops) == 7  # 2 H + 2 P + (CX, P, CX)
        assert len(entangled_pairs(FeatureMapSpec(2, 1, "full"))) == 1

    def test_five_qubit_full_gate_count(self):
        c = oracles.feature_map_circuit([0.1] * 5, FeatureMapSpec(5, 1, "full"))
        assert len(c.ops) == 40  # 5 H + 5 P + 10 pair sandwiches
        assert len(entangled_pairs(FeatureMapSpec(5, 1, "full"))) == 10

    def test_pair_enumeration(self):
        assert entangled_pairs(FeatureMapSpec(4, 1, "linear")) == [(0, 1), (1, 2), (2, 3)]
        assert entangled_pairs(FeatureMapSpec(3, 1, "full")) == [(0, 1), (0, 2), (1, 2)]

    def test_reps_repeat_block_with_same_slots(self):
        x = [0.2, 0.5, 0.9]
        base = oracles.feature_map_circuit(x, FeatureMapSpec(3, 1)).ops
        doubled = oracles.feature_map_circuit(x, FeatureMapSpec(3, 2)).ops
        assert doubled == base * 2

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FeatureMapSpec(0, 1)
        with pytest.raises(ConfigError):
            FeatureMapSpec(2, 0)
        with pytest.raises(ConfigError):
            FeatureMapSpec(2, 1, "ring")


class TestEncode:
    def test_zero_vector_is_hadamard_only(self):
        amps = encode([[0.0]], FeatureMapSpec(1))
        np.testing.assert_allclose(amps, [[INV_SQRT2, INV_SQRT2]], atol=1e-15)

    def test_quarter_pi_feature_gives_i_phase(self):
        # x = pi/4: P(2x) = P(pi/2) turns |1> into i|1>
        amps = encode([[np.pi / 4]], FeatureMapSpec(1))
        np.testing.assert_allclose(amps, [[INV_SQRT2, 1j * INV_SQRT2]], atol=1e-12)

    def test_matches_dense_oracle(self):
        spec = FeatureMapSpec(2, 1, "full")
        xs = [[0.3, 0.7], [0.0, 1.0], [0.91, 0.13]]
        got = encode(xs, spec)
        for row, x in zip(got, xs):
            expect = oracles.run_circuit_dense(oracles.feature_map_circuit(x, spec))
            np.testing.assert_allclose(row, expect, atol=1e-12)

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("reps", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_gate_level_oracle_grid(self, n, reps, entanglement):
        spec = FeatureMapSpec(n, reps, entanglement)
        xs = np.random.default_rng(100 * n + 10 * reps).uniform(0, 1, size=(3, n))
        got = encode(xs, spec)
        assert got.shape == (3, 1 << n)
        for row, x in zip(got, xs):
            expect = oracles.run_circuit_dense(oracles.feature_map_circuit(x, spec))
            np.testing.assert_allclose(row, expect, rtol=0, atol=1e-12)

    def test_norm_one(self):
        rng = np.random.default_rng(1)
        amps = encode(rng.uniform(0, 1, (20, 4)), FeatureMapSpec(4, 2, "full"))
        for row in amps:
            assert abs(np.vdot(row, row).real - 1.0) < 1e-12

    def test_deterministic(self):
        spec = FeatureMapSpec(3)
        x = [[0.2, 0.5, 0.8]]
        assert np.array_equal(encode(x, spec), encode(x, spec))

    def test_length_mismatch_rejected(self):
        with pytest.raises(EncodingError):
            encode([[0.1, 0.2]], FeatureMapSpec(3))
        with pytest.raises(EncodingError):
            encode([0.1, 0.2, 0.3], FeatureMapSpec(3))  # one sample must be a 1-row batch

    def test_register_cap_enforced(self):
        with pytest.raises(ConfigError):
            encode([[0.5] * 25], FeatureMapSpec(25))

    def test_state_memory_checked_before_allocation(self):
        # 2^20 rows at n = 24 would need 2^20 * 2^24 * 16 B * 2 = 512 TiB of states; the
        # zero-stride batch holds one row, and the check runs before anything batch-sized
        x = np.broadcast_to(np.full(24, 0.5), (1 << 20, 24))
        with pytest.raises(ConfigError, match=r"1048576 samples at n=24 .* 524288\.0 GiB"):
            encode(x, FeatureMapSpec(24))

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            encode([[0.5, 1.5]], FeatureMapSpec(2))
        with pytest.raises(EncodingError):
            encode([[0.2, 0.3], [-0.1, 0.5]], FeatureMapSpec(2))
        with pytest.raises(EncodingError):
            encode([[0.2, float("nan")]], FeatureMapSpec(2))


class TestPermutationConsistency:
    def test_swap_features_and_qubits_is_invariant(self):
        spec = FeatureMapSpec(2, 1, "full")
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0, 1, 2)
            a, b = encode([x, x[::-1]], spec)
            b_swapped = b[[0, 2, 1, 3]]  # exchange the two qubits
            fidelity = abs(np.vdot(b_swapped, a)) ** 2
            assert fidelity == pytest.approx(1.0, abs=1e-12)
