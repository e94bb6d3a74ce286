"""Classifier tests: parity readout, batched forward pass, loss, training."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import vqclass
from vqclass.ansatz import AnsatzSpec, apply_ansatz, init_params
from vqclass.errors import ConfigError
from vqclass.featmap import FeatureMapSpec, encode
from vqclass.prep import Dataset
from vqclass.spsa import SpsaConfig
from vqclass.statevec import StateVector
from vqclass.synth import make_blobs
from vqclass.vqc import (
    Label,
    Prediction,
    VqcConfig,
    _even_parity_mask,
    binary_cross_entropy,
    loss,
    p_ad,
    predict_batch,
    shot_seed,
    train,
)


def final_state(x, params, cfg):
    """Encoded state of one sample after the ansatz, as a StateVector."""
    amps = encode([x], cfg.feature_map)
    apply_ansatz(amps, cfg.ansatz, params)
    return StateVector(cfg.n_qubits, amps[0])


def parity_mass(state, measured_qubits, even=True):
    """Probability of an even (or odd) number of 1s on the measured qubits,
    by enumerating every basis outcome."""
    n = state.n_qubits
    total = 0.0
    for idx in range(1 << n):
        bits = format(idx, f"0{n}b")
        if ("".join(bits[q] for q in measured_qubits).count("1") % 2 == 0) == even:
            total += abs(state.amplitudes[idx]) ** 2
    return total


def small_cfg(n=2, shots=None, seed=0, measured=None):
    return VqcConfig(
        feature_map=FeatureMapSpec(n, 1, "full"),
        ansatz=AnsatzSpec(n, reps=1),
        measured_qubits=tuple(range(min(n, 2))) if measured is None else tuple(measured),
        shots=shots,
        seed=seed,
    )


def parity_class(bits):
    """Class the readout gives the basis outcome ``bits`` (qubit 0 leftmost),
    every qubit measured."""
    even = _even_parity_mask(len(bits), tuple(range(len(bits))))
    return Label.AD if even[int(bits, 2)] else Label.NON_AD


class TestParityDecode:
    def test_spec_cases(self):
        assert parity_class("00") is Label.AD
        assert parity_class("01") is Label.NON_AD
        assert parity_class("11") is Label.AD

    @given(st.text(alphabet="01", min_size=1, max_size=16))
    def test_appending_a_one_flips_class(self, bits):
        assert parity_class(bits) != parity_class(bits + "1")
        assert parity_class(bits) == parity_class(bits + "0")


class TestForward:
    def test_uniform_superposition_is_half(self):
        cfg = VqcConfig(
            feature_map=FeatureMapSpec(1),
            ansatz=AnsatzSpec(1, reps=1),
            measured_qubits=(0,),
        )
        pred = predict_batch([[0.0]], np.zeros(4), cfg)[0]
        assert pred.p_ad == pytest.approx(0.5, abs=1e-15)

    def test_probabilities_partition(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg(3)
        for _ in range(10):
            x = rng.uniform(0, 1, 3)
            params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
            state = final_state(x, params, cfg)
            p_even = predict_batch([x], params, cfg)[0].p_ad
            p_odd = parity_mass(state, cfg.measured_qubits, even=False)
            assert 0.0 <= p_even <= 1.0
            assert p_even + p_odd == pytest.approx(1.0, abs=1e-12)

    def test_exact_mode_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(1)
        for n, measured in ((2, (0, 1)), (3, (0, 2)), (4, (1, 2, 3))):
            cfg = small_cfg(n, measured=measured)
            x = rng.uniform(0, 1, n)
            params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
            state = final_state(x, params, cfg)
            expect = oracles.p_even_bruteforce(state, measured)
            got = predict_batch([x], params, cfg)[0].p_ad
            assert got == pytest.approx(expect, abs=1e-12)

    def test_parity_convention_flip_swaps_labels(self):
        rng = np.random.default_rng(2)
        cfg = small_cfg(3)
        for _ in range(20):
            x = rng.uniform(0, 1, 3)
            params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
            state = final_state(x, params, cfg)
            p_even = parity_mass(state, cfg.measured_qubits, even=True)
            p_odd = parity_mass(state, cfg.measured_qubits, even=False)
            assert p_odd == pytest.approx(1.0 - p_even, abs=1e-12)
            label_even = Label.AD if p_even >= 0.5 else Label.NON_AD
            label_odd = Label.AD if p_odd >= 0.5 else Label.NON_AD
            if p_even != 0.5:
                assert label_even != label_odd

    def test_shot_mode_close_to_exact(self):
        cfg_exact = small_cfg(3)
        x = [0.3, 0.6, 0.8]
        params = init_params(cfg_exact.ansatz, 5)
        p_exact = predict_batch([x], params, cfg_exact)[0].p_ad
        shots = 4096
        diffs = []
        for seed in range(20):
            cfg_shot = small_cfg(3, shots=shots, seed=seed)
            diffs.append(abs(predict_batch([x], params, cfg_shot)[0].p_ad - p_exact))
        assert np.mean(diffs) <= 5.0 / np.sqrt(shots)

    def test_shot_mode_deterministic(self):
        cfg = small_cfg(2, shots=256, seed=3)
        x = [0.2, 0.9]
        params = init_params(cfg.ansatz, 1)
        states = encode([x] * 6, cfg.feature_map)
        a = p_ad(states, params, cfg, eval_counter=2)
        b = p_ad(states, params, cfg, eval_counter=2)
        assert a[4] == b[4]
        assert a[4] != a[5]  # different sample index reseeds

    def test_p_ad_leaves_states_unchanged(self):
        cfg = small_cfg(3)
        states = encode(np.random.default_rng(3).uniform(0, 1, size=(4, 3)), cfg.feature_map)
        before = states.copy()
        params = init_params(cfg.ansatz, 4)
        first = p_ad(states, params, cfg)
        np.testing.assert_array_equal(states, before)
        np.testing.assert_array_equal(p_ad(states, params, cfg), first)

    def test_shot_seed_mixing_is_stable(self):
        assert shot_seed(1, 2, 3) == shot_seed(1, 2, 3)
        assert shot_seed(1, 2, 3) != shot_seed(1, 3, 2)

    def test_label_threshold(self):
        cfg = small_cfg(2)
        x = [0.4, 0.7]
        params = init_params(cfg.ansatz, 8)
        pred = predict_batch([x], params, cfg)[0]
        assert pred.label is (Label.AD if pred.p_ad >= 0.5 else Label.NON_AD)


class TestConfigValidation:
    def test_qubit_mismatch(self):
        with pytest.raises(ConfigError):
            VqcConfig(feature_map=FeatureMapSpec(2), ansatz=AnsatzSpec(3))

    def test_measured_qubits_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(2, measured=())
        with pytest.raises(ConfigError):
            small_cfg(2, measured=(0, 0))
        with pytest.raises(ConfigError):
            small_cfg(2, measured=(5,))

    def test_shots_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(2, shots=0)


class TestLoss:
    def test_bce_hand_values(self):
        assert binary_cross_entropy([1, 0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-8)
        assert binary_cross_entropy([1, 0, 1], [0.5, 0.5, 0.5]) == pytest.approx(
            math.log(2), rel=1e-12
        )
        expect = -(math.log(0.8) + math.log(0.6)) / 2
        assert binary_cross_entropy([1, 0], [0.8, 0.4]) == pytest.approx(expect, rel=1e-12)

    def test_clipping_bounds_loss(self):
        eps = 1e-9
        val = binary_cross_entropy([1], [0.0], eps=eps)
        assert val == pytest.approx(-math.log(eps), rel=1e-6)

    def test_uniform_classifier_gives_log2(self):
        # the 1-qubit all-zero circuit predicts exactly 0.5 for any sample
        cfg = VqcConfig(
            feature_map=FeatureMapSpec(1),
            ansatz=AnsatzSpec(1, reps=1),
            measured_qubits=(0,),
        )
        ds = Dataset(
            np.zeros((4, 1)), np.array([1, 0, 1, 0]), ["f0"], np.arange(4)
        )
        assert loss(ds, np.zeros(4), cfg) == pytest.approx(math.log(2), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg(2)
        feats = rng.uniform(0, 1, size=(8, 2))
        labels = rng.integers(0, 2, 8)
        ds = Dataset(feats, labels, ["a", "b"], np.arange(8))
        params = init_params(cfg.ansatz, 0)
        base = loss(ds, params, cfg)
        perm = rng.permutation(8)
        ds_perm = Dataset(feats[perm], labels[perm], ["a", "b"], np.arange(8))
        assert loss(ds_perm, params, cfg) == pytest.approx(base, abs=1e-12)

    def test_empty_dataset_rejected(self):
        cfg = small_cfg(2)
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ["a", "b"], np.zeros(0, int))
        with pytest.raises(ConfigError):
            loss(ds, init_params(cfg.ansatz, 0), cfg)

    def test_bad_labels_rejected(self):
        cfg = small_cfg(2)
        ds = Dataset(np.zeros((2, 2)), np.array([1, 2]), ["a", "b"], np.arange(2))
        with pytest.raises(ConfigError):
            loss(ds, init_params(cfg.ansatz, 0), cfg)


def _normalized_blobs(n_samples, n_features, seed):
    features, labels = make_blobs(n_samples, n_features, separation=4.0, seed=seed)
    lo, hi = features.min(axis=0), features.max(axis=0)
    return (features - lo) / (hi - lo), labels


class TestTrain:
    def test_zero_budget_returns_init(self):
        cfg = small_cfg(2, seed=6)
        x, y = _normalized_blobs(6, 2, seed=0)
        ds = Dataset(x, y, ["a", "b"], np.arange(6))
        run = train(ds, cfg, SpsaConfig(maxiter=0, seed=1))
        assert np.array_equal(run.final_params, init_params(cfg.ansatz, 6))
        assert run.loss_history.size == 0
        assert run.seeds_used == {"init": 6, "spsa": 1}

    def test_deterministic(self):
        cfg = small_cfg(2, seed=2)
        x, y = _normalized_blobs(8, 2, seed=1)
        ds = Dataset(x, y, ["a", "b"], np.arange(8))
        spsa_cfg = SpsaConfig(maxiter=15, seed=3)
        r1 = train(ds, cfg, spsa_cfg)
        r2 = train(ds, cfg, spsa_cfg)
        assert np.array_equal(r1.final_params, r2.final_params)
        assert np.array_equal(r1.loss_history, r2.loss_history)

    def test_separable_blobs_reach_high_train_accuracy(self):
        cfg = small_cfg(2, seed=1)
        x, y = _normalized_blobs(24, 2, seed=3)
        ds = Dataset(x, y, ["a", "b"], np.arange(24))
        run = train(ds, cfg, SpsaConfig(maxiter=150, seed=1))
        preds = predict_batch(x, run.final_params, cfg)
        accuracy = np.mean([int(p.label) == t for p, t in zip(preds, y)])
        assert accuracy >= 0.9

    def test_loss_matches_evaluator_history(self):
        # the recorded history entry equals an independent loss() call
        cfg = small_cfg(2, seed=4)
        x, y = _normalized_blobs(6, 2, seed=3)
        ds = Dataset(x, y, ["a", "b"], np.arange(6))
        run = train(ds, cfg, SpsaConfig(maxiter=5, seed=2))
        assert run.loss_history[-1] == pytest.approx(
            loss(ds, run.final_params, cfg), abs=1e-12
        )


class TestPredictBatch:
    def test_empty(self):
        cfg = small_cfg(2)
        assert predict_batch([], init_params(cfg.ansatz, 0), cfg) == []

    def test_single_matches_forward(self):
        cfg = small_cfg(2)
        params = init_params(cfg.ansatz, 0)
        x = [0.3, 0.8]
        p = float(p_ad(encode([x], cfg.feature_map), params, cfg)[0])
        label = Label.AD if p >= 0.5 else Label.NON_AD
        assert predict_batch([x], params, cfg) == [Prediction(p, label)]

    def test_order_preserved(self):
        for n in (2, 5):  # n = 5 shows batch-dependent rounding that n = 2 can miss
            cfg = small_cfg(n)
            params = init_params(cfg.ansatz, 1)
            rng = np.random.default_rng(5)
            xs = rng.uniform(0, 1, size=(21, n))
            preds = predict_batch(xs, params, cfg)
            assert len(preds) == 21
            for i, x in enumerate(xs):
                assert preds[i].p_ad == predict_batch([x], params, cfg)[0].p_ad

    @pytest.mark.parametrize("n, measured", [(2, (0, 1)), (3, (0, 2)), (5, (0, 1)), (4, (1, 2, 3))])
    def test_exact_matches_oracle_state(self, n, measured):
        cfg = VqcConfig(
            feature_map=FeatureMapSpec(n, 2, "full"),
            ansatz=AnsatzSpec(n, reps=2, entanglement="full"),
            measured_qubits=measured,
        )
        rng = np.random.default_rng(n)
        xs = rng.uniform(0, 1, size=(6, n))
        params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
        preds = predict_batch(xs, params, cfg)
        ansatz = oracles.circuit_unitary(oracles.ansatz_circuit(cfg.ansatz, params))
        for pred, x in zip(preds, xs):
            fmap = oracles.circuit_unitary(oracles.feature_map_circuit(x, cfg.feature_map))
            amps = ansatz @ fmap[:, 0]
            expect = oracles.p_even_bruteforce(StateVector(n, amps), measured)
            assert pred.p_ad == pytest.approx(expect, abs=1e-12)

    def test_shot_rows_use_their_own_seeds(self):
        cfg = small_cfg(3, shots=128, seed=9)
        params = init_params(cfg.ansatz, 2)
        xs = np.random.default_rng(6).uniform(0, 1, size=(7, 3))
        preds = predict_batch(xs, params, cfg)
        exact = p_ad(encode(xs, cfg.feature_map), params, replace(cfg, shots=None))
        for i, pred in enumerate(preds):
            rng = np.random.default_rng(shot_seed(cfg.seed, i, 0))
            even = rng.binomial(cfg.shots, np.clip(exact[i], 0.0, 1.0))
            assert pred.p_ad == even / cfg.shots


def test_public_names_resolve():
    for name in vqclass.__all__:
        assert getattr(vqclass, name) is not None, name
