"""Simulator tests on the kernels the pipeline runs: ``apply_block``, the
ansatz's fused rotation blocks and CY/CZ block gathers, and the closed-form
encoder, checked for gate semantics, norm and unitarity against the dense
oracles; then the outcome probabilities and shot sampling that the parity
readout takes from a state (``vqc._parity_mass``, then the shot draw
``vqc._draw``: the two steps ``p_ad`` runs after the ansatz), and the rule that
cuts every batch into row blocks (``row_blocks``). The one-gate helpers in
``gates`` take and return one state per row, as the oracles do."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gates import INV_SQRT2, hadamard, link, matrix, rotate
from vqclass import ansatz, vqc
from vqclass.ansatz import AnsatzSpec, apply_ansatz, build_ansatz
from vqclass.errors import ConfigError
from vqclass.featmap import ENTANGLEMENTS, FeatureMapSpec, encode
from vqclass.statevec import BLOCK_BYTES, MAX_QUBITS, apply_block, row_blocks



def readout_cfg(n, measured, shots=None, seed=0):
    return vqc.VqcConfig(
        FeatureMapSpec(n), AnsatzSpec(n), measured_qubits=measured, shots=shots, seed=seed
    )


def readout(amps, measured, shots=None, seed=0):
    """Even-parity mass on ``measured`` of each state (row of ``amps``),
    exact or as the frequency of ``shots`` seeded samples."""
    amps = np.atleast_2d(np.asarray(amps, dtype=np.complex128))
    n = int(amps.shape[1]).bit_length() - 1
    cfg = readout_cfg(n, measured, shots, seed)
    return vqc._draw(vqc._parity_mass(amps.T, cfg), cfg, 0)


def parity_masses(amps, measured):
    """(even, odd) parity mass by enumerating every basis outcome."""
    n = int(len(amps)).bit_length() - 1
    masses = [0.0, 0.0]
    for idx, a in enumerate(amps):
        bits = format(idx, f"0{n}b")
        masses[sum(int(bits[q]) for q in measured) % 2] += abs(a) ** 2
    return tuple(masses)


def encoded_phase(x):
    """The encoder's one-qubit state for feature ``x``: H, then P(2x)."""
    return encode([[x]], FeatureMapSpec(1))[0]


def random_instance(rng, rows):
    """A random instance of the classifier's circuit, n from 1 to 4: the
    feature map and ansatz specs, ``rows`` feature vectors, and parameters,
    with the final RZs' angles at 0 for ``run_classifier``."""
    n = int(rng.integers(1, 5))
    fmap = FeatureMapSpec(n, int(rng.integers(1, 4)), ENTANGLEMENTS[rng.integers(2)])
    spec = AnsatzSpec(n, int(rng.integers(1, 4)), ENTANGLEMENTS[rng.integers(2)])
    x, params = rng.uniform(0, 1, size=(rows, n)), rng.uniform(-np.pi, np.pi, spec.n_params)
    params[-n:] = 0.0
    return fmap, spec, x, params


def issued_products(n):
    """(start qubit, k) of each rotation product the ansatz runs at n qubits, read
    out on every qubit."""
    steps, _ = ansatz._light_cone(AnsatzSpec(n, 2, "full"), *range(n))
    return {(step[3], min(3, n)) for step in steps if step[0] == "group"}


def run_classifier(fmap, spec, x, params):
    """The states the pipeline evolves: ``x`` encoded, then the ansatz read out on
    every qubit. The final RZs, which no readout sees, do not run: a caller that
    compares the states with an oracle sets their angles, ``params[-n:]``, to 0, as
    ``random_instance`` does."""
    layers = build_ansatz(spec, params, tuple(range(spec.n_qubits)))
    return apply_ansatz(encode(x, fmap), spec, layers).T


class TestRowBlocks:
    @given(st.integers(0, 2000),
           st.integers(1, 4 * BLOCK_BYTES) | st.integers(BLOCK_BYTES // 3000, BLOCK_BYTES // 2),
           st.sampled_from([1, 2]))
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_fewest_even_blocks_cover_the_rows(self, n_rows, row_bytes, least):
        most = BLOCK_BYTES // row_bytes
        blocks = row_blocks(n_rows, row_bytes, least)
        if not n_rows:
            assert blocks == []
            return
        assert [s.start for s in blocks] == [0] + [s.stop for s in blocks[:-1]]
        assert blocks[-1].stop == n_rows
        sizes = [s.stop - s.start for s in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= max(most, 2 * least - 1)
        assert n_rows < least or min(sizes) >= least
        assert (len(blocks) - 1) * max(least, most) < n_rows  # one block fewer would not do

    def test_a_short_tail_is_shared(self):
        # 128 + 2 rows at n = 8: the 2-row block paid a whole block's numpy calls
        assert row_blocks(130, 16 << 8) == [slice(0, 65), slice(65, 130)]


class TestQubitCap:
    def test_cap_enforced(self):
        for make in (FeatureMapSpec, AnsatzSpec):
            assert make(MAX_QUBITS).n_qubits == MAX_QUBITS
            for n in (0, MAX_QUBITS + 1):
                with pytest.raises(ConfigError, match=r"n_qubits must be in \[1, 24\]"):
                    make(n)


class TestGateSemantics:
    def test_hadamard_on_zero(self):
        np.testing.assert_allclose(hadamard([1, 0], 0), [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_cz_flips_sign_of_11(self):
        got = link([0, 0, 0, 1], 2, "CZ", 0, 1)  # |11>
        np.testing.assert_allclose(got, [0, 0, 0, -1], atol=1e-15)

    def test_cy_on_10_gives_i_11(self):
        got = link([0, 0, 1, 0], 2, "CY", 0, 1)  # |10>: control qubit 0 set
        np.testing.assert_allclose(got, [0, 0, 0, 1j], atol=1e-15)

    def test_ry_half_pi(self):
        np.testing.assert_allclose(
            rotate([1, 0], ry=np.pi / 2), [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15
        )

    def test_phase_gate_only_touches_one(self):
        # the encoder's P(2x) after H leaves the |0> amplitude alone
        np.testing.assert_allclose(
            encoded_phase(0.5), [INV_SQRT2, INV_SQRT2 * np.exp(1j)], atol=1e-12
        )

    @pytest.mark.parametrize("kind", ["CY", "CZ"])
    def test_two_qubit_matrix_any_qubit_order(self, kind):
        # matrix reconstructed from action on basis states, control listed first
        u = {"CY": oracles.CY_MAT, "CZ": oracles.CZ_MAT}[kind]
        for control, target in [(0, 1), (1, 0), (0, 2), (2, 0)]:
            n = max(control, target) + 1
            expect = oracles.embed_controlled(
                u[2:, 2:], control, target, n
            )  # lower-right block is the controlled unitary
            got = matrix(lambda s: link(s, n, kind, control, target), 1 << n)
            np.testing.assert_allclose(got, expect, atol=1e-15)


class TestMatrixFidelity:
    """Action on basis states reconstructs the canonical matrices exactly."""

    def test_fixed_gates(self):
        got = matrix(lambda s: hadamard(s, 0), 2)
        assert np.max(np.abs(got - oracles.H_MAT)) < 1e-15
        for kind, mat in [("CY", oracles.CY_MAT), ("CZ", oracles.CZ_MAT)]:
            got = matrix(lambda s: link(s, 2, kind, 0, 1), 4)
            assert np.max(np.abs(got - mat)) < 1e-15

    def test_rotation_gates_random_angles(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=25):
            for gate, mat in [
                (lambda s: rotate(s, ry=theta), oracles.ry_mat(theta)),
                (lambda s: rotate(s, rz=theta), oracles.rz_mat(theta)),
            ]:
                assert np.max(np.abs(matrix(gate, 2) - mat)) < 1e-15
            # P reaches the pipeline only after H, inside the encoder, at angle 2x
            x = (theta + 2 * np.pi) / (4 * np.pi)
            expect = oracles.p_mat(2 * x) @ oracles.H_MAT[:, 0]
            assert np.max(np.abs(encoded_phase(x) - expect)) < 1e-15


class TestRunCircuit:
    def test_empty_circuit_identity(self):
        # zero angles make every rotation the identity; |00> leaves every link off
        state = oracles.basis_state(2).amplitudes[None]
        spec = AnsatzSpec(2, reps=2, entanglement="full")
        states = apply_ansatz(state, spec, build_ansatz(spec, np.zeros(12), (0, 1)))
        assert np.array_equal(states[:, 0], [1, 0, 0, 0])

    def test_h_then_trivial_cz(self):
        got = link(hadamard([1, 0, 0, 0], 0), 2, "CZ", 0, 1)
        np.testing.assert_allclose(got, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)

    def test_h_h_cz_matches_dense_oracle(self):
        got = link(hadamard(hadamard([1, 0, 0, 0], 0), 1), 2, "CZ", 0, 1)
        Op = oracles.Op
        c = oracles.Circuit(2, (Op("H", (0,)), Op("H", (1,)), Op("CZ", (0, 1))))
        np.testing.assert_allclose(got, [0.5, 0.5, 0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(got, oracles.run_circuit_dense(c), atol=1e-12)

    def test_deterministic(self):
        instance = random_instance(np.random.default_rng(3), 4)
        assert np.array_equal(run_classifier(*instance), run_classifier(*instance))


class TestOracleEquivalence:
    def test_random_circuits_match_dense_path(self):
        for seed in range(60):
            fmap, spec, x, params = random_instance(np.random.default_rng(seed), 2)
            got = run_classifier(fmap, spec, x, params)
            expect = oracles.classifier_states(x, fmap, spec, params)
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_batched_application_matches_per_state(self):
        rng = np.random.default_rng(11)
        spec = AnsatzSpec(3, reps=3, entanglement="full")
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        states = np.stack(
            [oracles.random_state(np.random.default_rng(100 + i), 3).amplitudes for i in range(6)]
        )
        layers = build_ansatz(spec, params, (0, 1, 2))
        batched = apply_ansatz(states, spec, layers)
        for i in range(6):
            single = apply_ansatz(states[i : i + 1], spec, layers)
            assert np.array_equal(batched[:, i], single[:, 0])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_qubit_block_every_qubit_with_trailing_batch(self, n):
        # a generic real 2x2 on every target qubit of complex (2^n, 6) and (2^n, 2, 3)
        # batches, against the dense embedding; a (2^n, 1) column evolves as it does
        # in the batch
        rng = np.random.default_rng(n)
        u = rng.normal(size=(2, 2))
        states = rng.normal(size=(1 << n, 6)) + 1j * rng.normal(size=(1 << n, 6))
        column = np.ascontiguousarray(states[:, 4:5])
        for q in range(n):
            expect = oracles.embed_single(u, q, n) @ states
            alone = np.empty_like(column)
            apply_block(u, column, q, alone)
            for shape in ((1 << n, 6), (1 << n, 2, 3)):
                got = np.empty(shape, dtype=np.complex128)
                apply_block(u, states.reshape(shape), q, got)
                np.testing.assert_allclose(got.reshape(states.shape), expect, atol=1e-12)
                assert np.array_equal(got.reshape(states.shape)[:, 4], alone[:, 0])

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8])
    def test_short_last_group_matches_dense_oracle(self, n):
        # read on every qubit: at n = 4, 5, 7 and 8 the last group owns 1, 2, 1 and 2
        # qubits and reaches back over 2, 1, 2 and 1 of the group before (the identity
        # there), and n = 1 and 2 run one group of n qubits; then qubit 0's light cone
        # under linear links, whose groups hold dead qubits (the identity) or none live (skipped)
        rng = np.random.default_rng(50 + n)
        fmap, spec = FeatureMapSpec(n, 1, "full"), AnsatzSpec(n, 2, "linear")
        x = rng.uniform(0, 1, size=(3, n))
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        params[-n:] = 0.0  # the final RZs, which no readout sees
        expect = oracles.classifier_states(x, fmap, spec, params)
        np.testing.assert_allclose(run_classifier(fmap, spec, x, params), expect, atol=1e-12)
        cfg = vqc.VqcConfig(fmap, spec, measured_qubits=(0,))
        even = [parity_masses(state, (0,))[0] for state in expect]
        np.testing.assert_allclose(vqc.p_ad(encode(x, fmap), params, cfg), even, atol=1e-12)

    # every product shape and start qubit the ansatz issues at n = 1, 2, 5, 8 and 12, in
    # the layout it runs in (groups high in the register run swapped, at q0 - n // 2),
    # on apply_block's reshape, (2^q0, 2^k, -1), of a (2^n, rows) block's float view;
    # real matrices, as the ansatz's RY groups are; and 8x8 at every q0 that fits at
    # n = 5 and 8
    @pytest.mark.parametrize("n, q0, k", sorted(
        {(n, q0, k) for n in (1, 2, 5, 8, 12) for q0, k in issued_products(n)}
        | {(n, q0, 3) for n in (5, 8) for q0 in range(n - 2)}))
    def test_blas_rounds_padded_columns_alike(self, n, q0, k):
        # rows are bitwise independent of their block only while BLAS rounds each
        # column of a product alike at any batch width, an odd one included
        rng = np.random.default_rng(19)
        m = rng.normal(size=(1 << k, 1 << k))
        batch = rng.normal(size=(1 << n, 37)) + 1j * rng.normal(size=(1 << n, 37))
        together = np.empty_like(batch)
        apply_block(m, batch, q0, together)
        for j in range(37):
            alone = np.ascontiguousarray(batch[:, j : j + 1])
            out = np.empty_like(alone)
            apply_block(m, alone, q0, out)
            assert np.array_equal(out[:, 0], together[:, j]), (
                f"column {j}: this BLAS rounds {1 << k}x{1 << k} products of 37 columns "
                f"apart from one column alone; pad a row block's columns to a multiple "
                f"this BLAS rounds alike before apply_block")


class TestNormAndUnitarity:
    def test_norm_preserved_over_1000_random_circuits(self):
        worst = 0.0
        for seed in range(1000):
            states = run_classifier(*random_instance(np.random.default_rng(seed), 1))
            worst = max(worst, abs(np.linalg.norm(states[0]) - 1.0))
        assert worst < 1e-9

    def test_gate_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        theta = 1.234
        h = lambda s: hadamard(s, 0)  # noqa: E731
        cz = lambda s: link(s, 2, "CZ", 0, 1)  # noqa: E731
        cy = lambda s: link(s, 2, "CY", 0, 1)  # noqa: E731  CY is self-inverse
        cases = [
            (2, h, h),
            (2, cz, cz),
            (2, cy, cy),
            (1, lambda s: rotate(s, ry=theta), lambda s: rotate(s, ry=-theta)),
            (1, lambda s: rotate(s, rz=theta), lambda s: rotate(s, rz=-theta)),
        ]
        for n, fwd, inv in cases:
            before = oracles.random_state(rng, n).amplitudes
            np.testing.assert_allclose(inv(fwd(before)), before, atol=1e-12)


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
        amps = oracles.basis_state(2, 0b01).amplitudes
        assert readout(amps, (0, 1), shots=1024, seed=0).tolist() == [0.0]
        assert readout(amps, (0,), shots=1024, seed=0).tolist() == [1.0]

    def test_binomial_concentration(self):
        even = readout([INV_SQRT2, INV_SQRT2], (0,), shots=1024, seed=42)[0] * 1024
        assert abs(even - 512) <= 5 * np.sqrt(1024 * 0.25)

    def test_same_seed_identical(self):
        amps = [INV_SQRT2, 0, INV_SQRT2, 0]
        a = readout(amps, (0, 1), shots=500, seed=17)
        assert np.array_equal(a, readout(amps, (0, 1), shots=500, seed=17))

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            readout_cfg(1, (0,), shots=0)

    def test_bitstring_convention_qubit0_leftmost(self):
        amps = np.empty(4, dtype=np.complex128)
        ry_pi = np.array([[0.0, -1.0], [1.0, 0.0]])
        apply_block(ry_pi, oracles.basis_state(2).amplitudes, 0, amps)  # RY(pi): |10>
        assert readout(amps, (0, 1), shots=16, seed=1).tolist() == [0.0]
        np.testing.assert_allclose(amps, [0, 0, 1, 0], atol=1e-15)

    def test_measured_subset_marginalizes(self):
        amps = oracles.basis_state(2, 0b10).amplitudes
        assert readout(amps, (1,), shots=8, seed=2).tolist() == [1.0]
        assert readout(amps, (0,), shots=8, seed=2).tolist() == [0.0]

    def test_total_variation_convergence(self):
        amps = oracles.random_state(np.random.default_rng(23), 2).amplitudes
        p = readout(amps, (0, 1))[0]
        for shots in (256, 1024, 4096):
            # even/odd total variation is |frequency - p|
            tv = [abs(readout(amps, (0, 1), shots, seed)[0] - p) for seed in range(20)]
            assert np.mean(tv) <= 5.0 / np.sqrt(shots)


class TestMarginals:
    def test_invalid_measured_lists(self):
        with pytest.raises(ConfigError):
            readout_cfg(2, ())
        with pytest.raises(ConfigError):
            readout_cfg(2, (0, 0))
        with pytest.raises(ConfigError):
            readout_cfg(2, (2,))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_circuit_norm_property(seed):
    states = run_classifier(*random_instance(np.random.default_rng(seed), 2))
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-9
