"""Feature map tests: structure and encoding."""

import tracemalloc

import numpy as np
import pytest

import oracles
from vqclass import ansatz, vqc
from vqclass.ansatz import AnsatzSpec, init_params
from vqclass.errors import ConfigError, EncodingError
from vqclass.featmap import MAX_H_GATES, FeatureMapSpec, encode, entangled_pairs, state_memory
from vqclass.vqc import VqcConfig, p_ad

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

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_reps_bound_keeps_unit_diagonal(self, n):
        # the bound allows 2^-52 of |psi|^2 per H gate against the kernel's unit
        # diagonal |psi|^4 at its 1e-12 tolerance; the butterflies drift far less
        reps = 1 + MAX_H_GATES // n
        with pytest.raises(ConfigError, match=f"reps must be <= {reps} at n={n}"):
            FeatureMapSpec(n, reps + 1)
        x = np.random.default_rng(n).uniform(0, 1, size=(4, n))
        states = encode(x, FeatureMapSpec(n, reps))
        diag = np.abs(np.einsum("ij,ij->i", states.conj(), states)) ** 2
        assert np.max(np.abs(diag - 1.0)) <= 1e-12

    def test_state_memory_checked_before_allocation(self):
        # 2^20 rows at n = 24 would need 2^20 * 2^24 * 16 B = 256 TiB of states, plus
        # 0.875 GiB of row blocks; the zero-stride batch holds one row, and the check
        # runs before anything batch-sized
        x = np.broadcast_to(np.full(24, 0.5), (1 << 20, 24))
        with pytest.raises(ConfigError, match=r"1048576 samples at n=24 .* 262144\.9 GiB"):
            encode(x, FeatureMapSpec(24))

    @pytest.mark.parametrize("n, rows, reps, ansatz_reps, entanglement", [
        pytest.param(12, 32, 1, 2, "full", id="1"),
        pytest.param(12, 32, 2, 2, "full", id="2"),
        # one row: the first p_ad's cached gathers (2 and 6 of them) outweigh the state
        pytest.param(16, 1, 1, 2, "full", id="n16-full-reps2"),
        pytest.param(16, 1, 1, 6, "linear", id="n16-linear-reps6"),
    ])
    def test_state_memory_covers_encode_and_p_ad(self, n, rows, reps, ansatz_reps, entanglement):
        # traced peak of a batch through encode then the first p_ad, which builds and
        # caches the ansatz's tables: at most the batch's charge plus the ansatz's
        cfg = VqcConfig(FeatureMapSpec(n, reps), AnsatzSpec(n, ansatz_reps, entanglement))
        x = np.random.default_rng(reps).uniform(0, 1, size=(rows, n))
        params = init_params(cfg.ansatz, 0)
        for cache in (ansatz.block_gather, ansatz._light_cone, vqc._even_parity_mask):
            cache.cache_clear()
        tracemalloc.start()
        try:
            p_ad(encode(x, cfg.feature_map), params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state_memory(rows, cfg.feature_map) + cfg.ansatz.table_bytes

    def test_state_memory_at_max_qubits(self):
        # one n = 24 full sample: 256 MiB of state and 3.5 row blocks of 256 MiB, then
        # the ansatz's two gathers at reps 2 (24 B each per basis state), its three RZ
        # phase vectors (16 B each) and 40 B more
        assert state_memory(1, FeatureMapSpec(24)) == 1.125 * 2**30
        assert AnsatzSpec(24, 2, "full").table_bytes == 2.125 * 2**30

    # a lone row's factors and products run on one-element loops, which numpy's complex
    # multiply may round apart from longer ones; from n = 1 on
    @pytest.mark.parametrize("n, reps, entanglement", [
        (12, 1, "full"), (8, 2, "linear"), (1, 1, "full"), (2, 1, "full"), (3, 2, "linear"),
        (5, 1, "full"), (6, 1, "linear")])
    def test_batch_encodes_bitwise_as_rows_alone(self, n, reps, entanglement):
        spec = FeatureMapSpec(n, reps, entanglement)
        x = np.random.default_rng(n).uniform(0, 1, size=(13, n))
        alone = np.vstack([encode(row[None], spec) for row in x])
        assert np.array_equal(encode(x, spec), alone)

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    def test_matches_per_index_phase_oracle_at_n12(self, entanglement):
        # beyond the dense grid: 64 sampled amplitudes of 4 rows against
        # 2^(-n/2) exp(i phase), the phase summed bit by bit in the oracle
        n, spec = 12, FeatureMapSpec(12, 1, entanglement)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, size=(4, n))
        idx = rng.choice(1 << n, size=64, replace=False)
        for row, x in zip(encode(xs, spec), xs):
            want = [2.0 ** (-n / 2) * np.exp(1j * oracles.feature_map_phase(x, i, spec))
                    for i in idx]
            np.testing.assert_allclose(row[idx], want, rtol=0, atol=1e-12)

    # below the max error the summed-phase encoder had on these rows, 1.32e-13 and
    # 3.02e-13: its cos and sin of a phase summed to hundreds of radians
    @pytest.mark.parametrize("n, summed_error", [(8, 1.3e-13), (12, 3.0e-13)])
    def test_phase_products_beat_summed_phase_in_long_double(self, n, summed_error):
        if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("long double is float64 here")
        spec = FeatureMapSpec(n, 1, "full")
        xs = np.random.default_rng(n).uniform(0, 1, size=(40, n))
        phase = oracles.feature_map_phases(xs, spec)
        got = encode(xs, spec) * 2.0 ** (n / 2)  # exact: n is even
        error = np.sqrt((got.real - np.cos(phase)) ** 2 + (got.imag - np.sin(phase)) ** 2)
        assert np.max(error) <= summed_error

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
