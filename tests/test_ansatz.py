"""Ansatz tests: layer structure, parameter handling, unitary properties."""

import itertools
import warnings

import numpy as np
import pytest

import oracles
from vqclass import ansatz, vqc
from vqclass.ansatz import (AnsatzSpec, apply_ansatz, block_gather, build_ansatz,
                            entangling_links, init_params)
from vqclass.errors import BindingError
from vqclass.featmap import FeatureMapSpec, encode
from vqclass.statevec import apply_block
from vqclass.vqc import VqcConfig, p_ad, predict_batch


def run_ansatz(spec, params, state=None):
    """``state`` (default |0...0>) advanced in place through the production
    ansatz, as a one-row batch; returns its amplitudes."""
    state = oracles.basis_state(spec.n_qubits) if state is None else state
    layers = build_ansatz(spec, params)
    state.amplitudes[...] = apply_ansatz(state.amplitudes[None], spec, layers)[:, 0]
    return state.amplitudes


def live_links(links, measured):
    """The links of a circuit's last block that can reach ``measured``,
    found by walking the block backward; written out here, apart from the
    package's own cone."""
    cone, live = set(measured), []
    for kind, (a, b) in reversed(links):
        if cone & {a, b}:
            cone |= {a, b}
            live.append((kind, (a, b)))
    return live[::-1]


def dead_slots(spec, measured):
    """Parameter slots that cannot change the readout on ``measured``: a
    gate whose qubits all lie outside the backward light cone, or an RZ
    with no live gate after it on its qubit (diagonal before a Z-basis
    measurement)."""
    cone, touched, dead = set(measured), set(), set()
    for op in reversed(oracles.ansatz_circuit(spec, np.arange(spec.n_params)).ops):
        if not cone & set(op.qubits) or (op.kind == "RZ" and op.qubits[0] not in touched):
            if op.angle is not None:
                dead.add(int(op.angle))
            continue
        cone |= set(op.qubits)
        touched |= set(op.qubits)
    return dead


def full_circuit_p(states, params, cfg):
    """Readout after every gate of the ansatz, no light cone: the parity
    mass and the shot draw that ``p_ad`` runs after its ansatz."""
    states = apply_ansatz(states, cfg.ansatz, build_ansatz(cfg.ansatz, params))
    return vqc._draw(vqc._parity_mass(states, cfg), cfg, 0)


def op_shape(op):
    # the oracle binds parameter i to the value i, so the angle names its slot
    slot = int(op.angle) if op.angle is not None else None
    return (op.kind, op.qubits, slot)


class TestStructure:
    def test_two_qubit_one_rep_sequence(self):
        spec = AnsatzSpec(2, reps=1, entanglement="linear")
        c = oracles.ansatz_circuit(spec, np.arange(spec.n_params))
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
        assert spec.n_params == 8

    def test_param_count_formula(self):
        assert AnsatzSpec(5, reps=2).n_params == 30
        assert AnsatzSpec(2, reps=1).n_params == 8

    def test_linear_chain_alternates_cy_cz(self):
        links = entangling_links(AnsatzSpec(5, reps=1, entanglement="linear"))
        assert links == [("CY", (0, 1)), ("CZ", (1, 2)), ("CY", (2, 3)), ("CZ", (3, 4))]

    def test_full_entanglement_pairs(self):
        links = entangling_links(AnsatzSpec(3, reps=1, entanglement="full"))
        assert links == [("CY", (0, 1)), ("CZ", (0, 2)), ("CY", (1, 2))]


class TestApplication:
    def test_zero_params_identity_on_zero_state(self):
        amps = run_ansatz(AnsatzSpec(2, reps=1), np.zeros(8))
        np.testing.assert_allclose(amps, [1, 0, 0, 0], atol=1e-15)

    def test_zero_params_single_qubit_leaves_any_state(self):
        s = oracles.random_state(np.random.default_rng(0), 1)
        before = s.amplitudes.copy()
        run_ansatz(AnsatzSpec(1, reps=1), np.zeros(4), s)
        np.testing.assert_allclose(s.amplitudes, before, atol=1e-15)

    def test_first_param_is_ry_on_qubit0(self):
        # RY(pi) flips qubit 0; the CY entangler then maps |10> to i|11>
        params = np.zeros(8)
        params[0] = np.pi
        amps = run_ansatz(AnsatzSpec(2, reps=1), params)
        np.testing.assert_allclose(amps, [0, 0, 0, 1j], atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        spec = AnsatzSpec(3, reps=2)
        for _ in range(5):
            params = rng.uniform(-np.pi, np.pi, spec.n_params)
            amps = run_ansatz(spec, params)
            expect = oracles.run_circuit_dense(oracles.ansatz_circuit(spec, params))
            np.testing.assert_allclose(amps, expect, atol=1e-12)

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("reps", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_batch_matches_dense_oracle(self, n, reps, entanglement):
        # row 0 starts in |0...0>, the others in random states
        spec = AnsatzSpec(n, reps=reps, entanglement=entanglement)
        rng = np.random.default_rng(100 * n + 10 * reps + len(entanglement))
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        circuit = oracles.ansatz_circuit(spec, params)
        starts = np.stack(
            [oracles.basis_state(n).amplitudes]
            + [oracles.random_state(rng, n).amplitudes for _ in range(2)]
        )
        got = apply_ansatz(starts, spec, build_ansatz(spec, params)).T
        np.testing.assert_allclose(got[0], oracles.run_circuit_dense(circuit), atol=1e-12)
        np.testing.assert_allclose(got, starts @ oracles.circuit_unitary(circuit).T, atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_rotation_product_is_8x8(self, n, monkeypatch):
        # the last group reaches back over the one before it, so no layer ends in a
        # 2x2 or 4x4 tail; one product per group and layer, then fewer in the light cone
        shapes = []

        def spy(matrix, *args):
            shapes.append(matrix.shape)
            apply_block(matrix, *args)

        monkeypatch.setattr(ansatz, "apply_block", spy)
        spec = AnsatzSpec(n, reps=2, entanglement="full")
        states = encode(np.random.default_rng(n).uniform(0, 1, size=(3, n)), FeatureMapSpec(n))
        params = init_params(spec, n)
        apply_ansatz(states, spec, build_ansatz(spec, params))
        assert len(shapes) == 3 * -(-n // 3)
        apply_ansatz(states, spec, build_ansatz(spec, params, (0, 1)))
        assert set(shapes) == {(8, 8)}

    def test_param_length_mismatch(self):
        cfg = VqcConfig(feature_map=FeatureMapSpec(2), ansatz=AnsatzSpec(2, reps=1))
        states = encode([[0.1, 0.2]], cfg.feature_map)
        with pytest.raises(BindingError):
            p_ad(states, np.zeros(7), cfg)
        with pytest.raises(BindingError):
            p_ad(states, np.zeros(9), cfg)
        with pytest.raises(BindingError):
            run_ansatz(cfg.ansatz, np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shots", [None, 64])
    def test_non_finite_params_rejected(self, bad, shots):
        # exact readout would return nan masses, which classify reads as NON_AD, and
        # shot readout would fail inside numpy's binomial draw
        cfg = VqcConfig(FeatureMapSpec(3), AnsatzSpec(3), shots=shots)
        params = init_params(cfg.ansatz, 0)
        params[0] = bad
        with pytest.raises(BindingError, match="finite"):
            predict_batch(np.full((4, 3), 0.5), params, cfg)
        with pytest.raises(BindingError, match="finite"):
            build_ansatz(cfg.ansatz, params, (0, 1))

    def test_misshapen_batch_rejected(self):
        # the ansatz takes one state per row: a batch-last (2^n, N) batch, one
        # bare state or a 3-D stack would be advanced along the wrong axis
        spec = AnsatzSpec(2, reps=1)
        rows = np.zeros((3, 4), dtype=np.complex128)
        for states in (rows.T, rows[0], rows[:, :, None]):
            with pytest.raises(BindingError, match=r"states must have shape \(N, 4\)"):
                apply_ansatz(states, spec, build_ansatz(spec, np.zeros(8)))

    def test_any_row_layout_gives_the_same_bits(self):
        # the rows are copied in whatever their strides and never written
        spec = AnsatzSpec(4, reps=2, entanglement="full")
        rng = np.random.default_rng(8)
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        base = encode(rng.uniform(0, 1, size=(10, 4)), FeatureMapSpec(4))
        layers = build_ansatz(spec, params)
        expect = apply_ansatz(np.ascontiguousarray(base[::2]), spec, layers)
        readonly = base[::2].view()
        readonly.flags.writeable = False
        for states in (base[::2], np.asfortranarray(base[::2]), readonly):
            before = states.copy()
            assert np.array_equal(apply_ansatz(states, spec, layers), expect)
            assert np.array_equal(states, before)

    @pytest.mark.parametrize("n, rows", [(5, 3), (12, 2)])
    def test_dirty_work_buffer(self, n, rows):
        # every element the ansatz reads is written first: what a reused
        # buffer held before changes no bit of the result and raises no warning
        spec = AnsatzSpec(n, reps=2, entanglement="full")
        rng = np.random.default_rng(n)
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        states = encode(rng.uniform(0, 1, size=(rows, n)), FeatureMapSpec(n))
        layers = build_ansatz(spec, params)
        fresh = apply_ansatz(states, spec, layers)
        for fill in (np.inf, np.nan):
            work = np.full((2, rows << n), fill, dtype=np.complex128)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(apply_ansatz(states, spec, layers, work), fresh)

    def test_state_size_mismatch(self):
        cfg = VqcConfig(feature_map=FeatureMapSpec(2), ansatz=AnsatzSpec(2, reps=1))
        states = encode([[0.1, 0.2, 0.3]], FeatureMapSpec(3))
        with pytest.raises(BindingError):
            p_ad(states, np.zeros(8), cfg)


class TestFastPath:
    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_block_gather_equals_gate_list_exactly(self, n, entanglement):
        links = entangling_links(AnsatzSpec(n, entanglement=entanglement))
        rng = np.random.default_rng(10 * n + len(entanglement))
        states = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        for subset in (links, live_links(links, (0, 1) if n > 1 else (0,))):
            inv, phase = block_gather(n, tuple(subset))
            expect = states
            for kind, (a, b) in subset:
                u4 = {"CY": oracles.CY_MAT, "CZ": oracles.CZ_MAT}[kind]
                expect = oracles.apply_pair(expect, n, u4, a, b)
            # exact: each link only permutes entries and multiplies them by 1, -1 or +-i
            assert np.array_equal(states[:, inv] * phase, expect)

    def test_full_last_block_keeps_links_touching_the_readout(self):
        links = entangling_links(AnsatzSpec(12, entanglement="full"))
        assert len(links) - len(live_links(links, (0, 1))) == 45

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    def test_table_bytes_covers_distinct_gathers(self, entanglement):
        # every measured subset at n <= 6, reps <= 8: the light cone's distinct
        # gathers (24 B per basis state each) never exceed what table_bytes charges
        for n in range(1, 7):
            for reps in range(1, 9):
                spec = AnsatzSpec(n, reps, entanglement)
                charged = ((spec.table_bytes >> n) - 40 - 16 * (reps + 1)) // 24
                for size in range(1, n + 1):
                    for measured in itertools.combinations(range(n), size):
                        steps, _ = ansatz._light_cone(spec, measured)
                        distinct = {id(step[3]) for step in steps if step[0] == "gather"}
                        assert len(distinct) <= charged, (n, reps, measured)

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    def test_plan_layouts_replay(self, entanglement):
        # replaying each plan's swaps: every phase and gather reads the layout it records and
        # each group runs in the layout its start qubit is given in; no swap but the last,
        # the swap back, runs on a swapped register; a gather leaves it plain, as does a plan
        cases = [(n, measured) for n in range(1, 7) for size in range(1, n + 1)
                 for measured in itertools.combinations(range(n), size)]
        cases += [(n, None) for n in range(1, 7)] + [(12, (0, 1)), (12, (11,))]
        for (n, measured), reps in itertools.product(cases, range(1, 4)):
            h, swapped = n // 2, False
            steps, _ = ansatz._light_cone(AnsatzSpec(n, reps, entanglement), measured)
            for i, (kind, *at) in enumerate(steps):
                if kind == "swap":
                    assert (at, i) == ([n - h], len(steps) - 1) if swapped else at == [h]
                    swapped = not swapped
                elif kind == "group":
                    q0 = min(at[1] * ansatz.GROUP, n - min(ansatz.GROUP, n))
                    assert swapped == (0 < h <= q0) and at[2] == q0 - h * swapped
                else:
                    assert at[1] == swapped, (n, reps, measured, i)
                    swapped &= kind != "gather"
            assert not swapped, (n, reps, measured)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_swapped_layers_match_gate_oracle(self, n):
        # qubit n - 1 read after linear links: the last layer's one live group lies in
        # the high half, so the register swaps and the circuit ends swapped; with every
        # gate kept (measured None) each layer swaps and the state comes back whole
        cfg = VqcConfig(FeatureMapSpec(n, 1, "full"), AnsatzSpec(n, 2, "linear"),
                        measured_qubits=(n - 1,))
        steps, _ = ansatz._light_cone(cfg.ansatz, cfg.measured_qubits)
        first = next(i for i, s in enumerate(steps) if s[:2] == ("group", cfg.ansatz.reps))
        assert steps[first - 1][0] == "swap"  # the last layer's first live group swaps: all high
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 1, size=(3, n))
        params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
        expect = np.stack([
            oracles.run_gates(oracles.ansatz_circuit(cfg.ansatz, params),
                              oracles.run_gates(oracles.feature_map_circuit(row, cfg.feature_map),
                                                oracles.basis_state(n).amplitudes))
            for row in x])
        states = encode(x, cfg.feature_map)
        got = apply_ansatz(states, cfg.ansatz, build_ansatz(cfg.ansatz, params)).T
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)
        p = p_ad(states, params, cfg)
        even = [oracles.p_even_bruteforce(oracles.State(n, amps), (n - 1,)) for amps in expect]
        np.testing.assert_allclose(p, even, rtol=0, atol=1e-12)
        alone = np.concatenate([p_ad(states[i : i + 1], params, cfg) for i in range(3)])
        assert np.array_equal(p, alone)

    CASES = [(5, (0,)), (5, (0, 1)), (6, (1, 3)), (6, (0, 2, 4))]

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("n, measured", CASES)
    def test_dead_parameters_do_not_move_p_ad(self, n, measured, entanglement):
        cfg = VqcConfig(
            feature_map=FeatureMapSpec(n, 1, "full"),
            ansatz=AnsatzSpec(n, reps=2, entanglement=entanglement),
            measured_qubits=measured,
        )
        rng = np.random.default_rng(n + sum(measured) + len(entanglement))
        states = encode(rng.uniform(0, 1, size=(4, n)), cfg.feature_map)
        params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
        dead = dead_slots(cfg.ansatz, measured)
        assert len(dead) >= 2 * n - len(measured)
        base, base_full = p_ad(states, params, cfg), full_circuit_p(states, params, cfg)
        final_ry = [cfg.ansatz.n_params - 2 * n + q for q in measured]
        for i in sorted(dead) + final_ry:
            shifted = params.copy()
            shifted[i] += 1.3
            moved = np.max(np.abs(p_ad(states, shifted, cfg) - base))
            if i in dead:
                assert moved <= 1e-14, i
                full_moved = np.max(np.abs(full_circuit_p(states, shifted, cfg) - base_full))
                assert full_moved <= 1e-14, i
            else:  # the last rotation before a measured qubit's readout is live
                assert moved > 1e-3, i

    @pytest.mark.parametrize("entanglement", ["linear", "full"])
    @pytest.mark.parametrize("n, measured", CASES)
    def test_light_cone_matches_full_circuit(self, n, measured, entanglement):
        cfg = VqcConfig(
            feature_map=FeatureMapSpec(n, 2, entanglement),
            ansatz=AnsatzSpec(n, reps=3, entanglement=entanglement),
            measured_qubits=measured,
        )
        rng = np.random.default_rng(7 * n + len(measured))
        states = encode(rng.uniform(0, 1, size=(5, n)), cfg.feature_map)
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
            got = p_ad(states, params, cfg)
            np.testing.assert_allclose(got, full_circuit_p(states, params, cfg), rtol=0, atol=1e-12)


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
            run_ansatz(spec, params, s)
            worst = max(worst, abs(np.linalg.norm(s.amplitudes) - 1.0))
        assert worst < 1e-10

    def test_inverse_composition_returns_start(self):
        rng = np.random.default_rng(77)
        spec = AnsatzSpec(3, reps=2)
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        circuit = oracles.ansatz_circuit(spec, params)
        s = oracles.random_state(rng, 3)
        before = s.amplitudes.copy()
        run_ansatz(spec, params, s)
        undone = oracles.circuit_unitary(circuit).conj().T @ s.amplitudes
        np.testing.assert_allclose(undone, before, atol=1e-10)

    def test_parameter_shift_identity(self):
        # rotation-gate shift rule: dE/dt = (E(t + pi/2) - E(t - pi/2)) / 2
        spec = AnsatzSpec(2, reps=1)
        fmap = FeatureMapSpec(2, 1, "full")
        cfg = VqcConfig(feature_map=fmap, ansatz=spec)
        rng = np.random.default_rng(10)
        base = rng.uniform(-np.pi, np.pi, spec.n_params)
        x = [0.35, 0.6]

        def expectation(params):
            p = predict_batch([x], params, cfg)[0]
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
