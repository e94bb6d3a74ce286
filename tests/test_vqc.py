"""Classifier tests: parity readout, batched forward pass, loss, training."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blas
import oracles
import vqclass
from vqclass import vqc
from vqclass.ansatz import AnsatzSpec, apply_ansatz, build_ansatz, init_params
from vqclass.errors import ConfigError
from vqclass.featmap import FeatureMapSpec, encode
from vqclass.spsa import SpsaConfig, gain_sequences
from vqclass.synth import make_blobs
from vqclass.vqc import (
    BLOCK_BYTES,
    Label,
    VqcConfig,
    _even_parity_mask,
    binary_cross_entropy,
    classify,
    p_ad,
    predict_batch,
    train,
)


def final_state(x, params, cfg):
    """Encoded state of one sample after the ansatz, as an oracle State."""
    amps = apply_ansatz(encode([x], cfg.feature_map), cfg.ansatz,
                        build_ansatz(cfg.ansatz, params))
    return oracles.State(cfg.n_qubits, amps[:, 0])


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


def philox_count(seed, eval_counter, i, shots, mass):
    """Row i's reference shot count: a fresh Philox generator keyed by the
    eval's SeedSequence word in the low 64 bits and the row index above it."""
    word = np.random.SeedSequence((seed, eval_counter)).generate_state(1, np.uint64)[0]
    rng = np.random.Generator(np.random.Philox(key=int(word) | (i << 64)))
    return rng.binomial(shots, np.clip(mass, 0.0, 1.0))


def shot_states(cfg, rows, seed):
    return encode(np.random.default_rng(seed).uniform(0, 1, size=(rows, cfg.n_qubits)),
                  cfg.feature_map)


TESTS = Path(__file__).resolve().parent
# the OpenBLAS cores an x86-64 CPU can run, by the /proc/cpuinfo flag each needs
CORE_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx",
              "Nehalem": None, "Prescott": None}
# each row of a batch against the row alone, n = 1..12, 2.5 row blocks up to 300 rows:
# full links read on (0, 1) (on qubit 0 at n = 1), and linear links read on qubit n - 1,
# which from n = 5 on ends the circuit with the register's halves swapped; prints the
# running core, then {(n, links): rows that differ}
ROWS_ALONE = """
import numpy as np
from blas import openblas_core
from vqclass.ansatz import AnsatzSpec, init_params
from vqclass.featmap import FeatureMapSpec, encode
from vqclass.statevec import BLOCK_BYTES
from vqclass.vqc import VqcConfig, p_ad
bad = {}
for n in range(1, 13):
    rows = min(299, 5 * (BLOCK_BYTES >> (n + 4)) // 2 + 1)  # odd-width tails
    for links, measured in (("full", (0, 1)[:n]), ("linear", (n - 1,))):
        cfg = VqcConfig(FeatureMapSpec(n, 1, "full"), AnsatzSpec(n, 2, links), measured)
        states = encode(np.random.default_rng(n).uniform(0, 1, size=(rows, n)), cfg.feature_map)
        params = init_params(cfg.ansatz, n)
        alone = np.concatenate([p_ad(states[i : i + 1], params, cfg) for i in range(rows)])
        bad[n, links] = int(np.sum(p_ad(states, params, cfg) != alone))
print(openblas_core(), {key: d for key, d in bad.items() if d})
"""


def cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return next((set(line.split(":", 1)[1].split()) for line in info
                         if line.startswith("flags")), set())
    except OSError:
        return set()


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
        assert predict_batch([[0.0]], np.zeros(4), cfg)[0] == pytest.approx(0.5, abs=1e-15)

    def test_probabilities_partition(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg(3)
        for _ in range(10):
            x = rng.uniform(0, 1, 3)
            params = rng.uniform(-np.pi, np.pi, cfg.ansatz.n_params)
            state = final_state(x, params, cfg)
            p_even = predict_batch([x], params, cfg)[0]
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
            got = predict_batch([x], params, cfg)[0]
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
        p_exact = predict_batch([x], params, cfg_exact)[0]
        shots = 4096
        diffs = []
        for seed in range(20):
            cfg_shot = small_cfg(3, shots=shots, seed=seed)
            diffs.append(abs(predict_batch([x], params, cfg_shot)[0] - p_exact))
        assert np.mean(diffs) <= 5.0 / np.sqrt(shots)

    def test_shot_mode_deterministic(self):
        cfg = small_cfg(2, shots=256, seed=3)
        x = [0.2, 0.9]
        params = init_params(cfg.ansatz, 1)
        states = encode([x] * 64, cfg.feature_map)
        a = p_ad(states, params, cfg, eval_counter=2)
        b = p_ad(states, params, cfg, eval_counter=2)
        np.testing.assert_array_equal(a, b)
        assert len(np.unique(a)) > 1  # each sample index draws its own stream

    def test_p_ad_leaves_states_unchanged(self):
        cfg = small_cfg(3)
        states = encode(np.random.default_rng(3).uniform(0, 1, size=(4, 3)), cfg.feature_map)
        before = states.copy()
        params = init_params(cfg.ansatz, 4)
        first = p_ad(states, params, cfg)
        np.testing.assert_array_equal(states, before)
        np.testing.assert_array_equal(p_ad(states, params, cfg), first)

    # from n = 13 on blocks hold 4, 2 and 1 rows
    @pytest.mark.parametrize("n", [8, 12, 14, 16])
    def test_row_blocks_at_production_size(self, n):
        # 2.5 blocks' rows, so the last block is short
        cfg = VqcConfig(FeatureMapSpec(n, 1, "full"), AnsatzSpec(n, reps=2, entanglement="full"))
        rows = 5 * max(1, BLOCK_BYTES >> (n + 4)) // 2
        states = encode(np.random.default_rng(8).uniform(0, 1, size=(rows, n)), cfg.feature_map)
        params = init_params(cfg.ansatz, 8)
        exact = p_ad(states, params, cfg)
        by_row = np.concatenate([p_ad(states[i : i + 1], params, cfg) for i in range(rows)])
        assert np.array_equal(exact, by_row)
        shot_cfg = replace(cfg, shots=1000, seed=4)
        got = p_ad(states, params, shot_cfg, eval_counter=3)
        for i, mass in enumerate(exact):
            assert got[i] == philox_count(shot_cfg.seed, 3, i, shot_cfg.shots, mass) / shot_cfg.shots

    @pytest.mark.parametrize("core", list(CORE_FLAGS))
    def test_rows_alike_under_every_openblas_core(self, core):
        # rows stay independent of their batch on every kernel this CPU can run, not only
        # on the one OpenBLAS picks, on one BLAS thread and on two, which split wide stacks
        # of products apart: the core and the thread count are set in the child only
        if not blas.is_openblas() or platform.machine() != "x86_64":
            pytest.skip("needs OpenBLAS on x86-64")
        if CORE_FLAGS[core] is not None and CORE_FLAGS[core] not in cpu_flags():
            pytest.skip(f"this CPU lacks {CORE_FLAGS[core]}")
        path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(path)}
            child = subprocess.run([sys.executable, "-c", ROWS_ALONE], env=env,
                                   capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            # OpenBLAS names some forced cores after the kernels they share: Prescott is Katmai
            running, bad = child.stdout.split(" ", 1)
            assert bad.strip() == "{}", (f"{core} (runs as {running}) on {threads} BLAS "
                                         f"threads: {{(n, links): rows that differ}} {bad}")

    def test_p_ad_holds_no_batch_sized_buffer(self):
        cfg = VqcConfig(FeatureMapSpec(12, 1, "full"), AnsatzSpec(12, reps=2, entanglement="full"))
        rows = 16 * max(1, BLOCK_BYTES >> (12 + 4))
        states = encode(np.random.default_rng(9).uniform(0, 1, size=(rows, 12)), cfg.feature_map)
        params = init_params(cfg.ansatz, 9)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p_ad(states, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < states.nbytes / 4

    def test_shot_seed_mixing_is_stable(self):
        cfg = small_cfg(2, shots=1 << 30, seed=1)
        mass = np.full(4, 0.5)
        draw = vqc._draw(mass, cfg, 3)
        np.testing.assert_array_equal(draw, vqc._draw(mass, cfg, 3))
        row2_eval3 = philox_count(1, 3, 2, cfg.shots, 0.5)
        row3_eval2 = philox_count(1, 2, 3, cfg.shots, 0.5)
        assert draw[2] * cfg.shots == row2_eval3
        assert vqc._draw(mass, cfg, 2)[3] * cfg.shots == row3_eval2
        assert row2_eval3 != row3_eval2  # swapping row index and eval counter gives another stream

    def test_label_threshold(self):
        cfg = small_cfg(2)
        x = [0.4, 0.7]
        params = init_params(cfg.ansatz, 8)
        p = predict_batch([x], params, cfg)
        assert classify(p)[0] == (Label.AD if p[0] >= 0.5 else Label.NON_AD)
        edges = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 1.0])
        np.testing.assert_array_equal(classify(edges), [0, 0, 1, 1])


class TestShotStream:
    """The per-row Philox streams behind shot-mode readout."""

    def test_known_answer(self):
        # pins the stream: a change here changes every shot-mode result
        cfg = small_cfg(2, shots=1024, seed=0)
        mass = np.array([0.1, 0.5, 0.9, 0.3])
        expect = {0: [105, 520, 920, 322], 1: [103, 530, 929, 294]}
        for eval_counter, counts in expect.items():
            np.testing.assert_array_equal(vqc._draw(mass, cfg, eval_counter) * 1024, counts)
            assert counts == [philox_count(0, eval_counter, i, 1024, m) for i, m in enumerate(mass)]

    def test_counts_are_binomial_and_rows_uncorrelated(self):
        shots, p, rows = 1024, 0.3, 20_000
        counts = vqc._draw(np.full(rows, p), small_cfg(2, shots=shots, seed=5), 7) * shots
        mean, var = shots * p, shots * p * (1 - p)
        assert abs(counts.mean() - mean) < 5 * np.sqrt(var / rows)
        assert abs(counts.var() - var) < 0.1 * var
        assert abs(np.corrcoef(counts[:-1], counts[1:])[0, 1]) < 0.05

    def test_prefix_rows_draw_the_same_counts(self):
        cfg = small_cfg(3, shots=256, seed=4)
        states = shot_states(cfg, 40, 11)
        params = init_params(cfg.ansatz, 3)
        full = p_ad(states, params, cfg, eval_counter=5)
        for k in (1, 7, 39):
            np.testing.assert_array_equal(p_ad(states[:k], params, cfg, eval_counter=5), full[:k])

    def test_interleaved_configs_do_not_share_state(self):
        cfg_a, cfg_b = small_cfg(3, shots=128, seed=1), small_cfg(3, shots=512, seed=2)
        states = shot_states(cfg_a, 12, 12)
        params = init_params(cfg_a.ansatz, 6)
        alone_a = [p_ad(states, params, cfg_a, eval_counter=k) for k in range(3)]
        alone_b = [p_ad(states, params, cfg_b, eval_counter=k) for k in range(3)]
        for k in range(3):
            np.testing.assert_array_equal(p_ad(states, params, cfg_a, eval_counter=k), alone_a[k])
            np.testing.assert_array_equal(p_ad(states, params, cfg_b, eval_counter=k), alone_b[k])


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

    def test_measured_qubits_must_be_integers(self):
        # neither rounded nor read as 0/1: a float, a bool or a string is rejected
        for measured in ((0.9, True), (0, 1.0), (True,), (np.True_, 1), (0, "1")):
            with pytest.raises(ConfigError, match="measured_qubits"):
                small_cfg(2, measured=measured)
        cfg = small_cfg(2, measured=(np.int64(1), np.uint8(0)))
        assert cfg.measured_qubits == (1, 0)
        assert all(type(q) is int for q in cfg.measured_qubits)

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

    def test_one_log_matches_two_log_form(self):
        # -mean(log(where(y, p, 1 - p))) is bitwise the two-log form with 0/1 labels,
        # p at 0 and 1, at the clip edges and just past them included
        rng = np.random.default_rng(12)
        for eps in (1e-9, 1e-3, 0.25):
            edges = [0.0, 1.0, eps, 1.0 - eps, np.nextafter(eps, 0), np.nextafter(1 - eps, 1)]
            for _ in range(500):
                rows = int(rng.integers(1, 40))
                y, p = rng.integers(0, 2, rows), rng.uniform(0, 1, rows)
                at_edge = rng.random(rows) < 0.3
                p[at_edge] = rng.choice(edges, int(at_edge.sum()))
                q = np.clip(p, eps, 1.0 - eps)
                two_log = -np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))
                assert binary_cross_entropy(y, p, eps) == two_log

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
        y = np.array([1, 0, 1, 0])
        p = predict_batch(np.zeros((4, 1)), np.zeros(4), cfg)
        assert binary_cross_entropy(y, p, cfg.loss_clip_epsilon) == pytest.approx(
            math.log(2), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg(2)
        feats = rng.uniform(0, 1, size=(8, 2))
        labels = rng.integers(0, 2, 8)
        params = init_params(cfg.ansatz, 0)
        eps = cfg.loss_clip_epsilon
        base = binary_cross_entropy(labels, predict_batch(feats, params, cfg), eps)
        perm = rng.permutation(8)
        permuted = binary_cross_entropy(labels[perm], predict_batch(feats[perm], params, cfg), eps)
        assert permuted == pytest.approx(base, abs=1e-12)

    # train checks the data its loss is taken over
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train(np.zeros((0, 2)), np.zeros(0, dtype=int), small_cfg(2), SpsaConfig(maxiter=1))

    def test_bad_labels_rejected(self):
        for y in ([1, 2], [1], [[1, 0]]):  # a value outside {0, 1}; not one label per row
            with pytest.raises(ConfigError):
                train(np.zeros((2, 2)), np.array(y), small_cfg(2), SpsaConfig(maxiter=1))


def _normalized_blobs(n_samples, n_features, seed):
    features, labels = make_blobs(n_samples, n_features, separation=4.0, seed=seed)
    lo, hi = features.min(axis=0), features.max(axis=0)
    return (features - lo) / (hi - lo), labels


class TestTrain:
    def test_zero_budget_returns_init(self):
        cfg = small_cfg(2, seed=6)
        x, y = _normalized_blobs(6, 2, seed=0)
        params, history = train(x, y, cfg, SpsaConfig(maxiter=0, seed=1))
        assert np.array_equal(params, init_params(cfg.ansatz, 6))
        assert history.size == 0

    def test_deterministic(self):
        cfg = small_cfg(2, seed=2)
        x, y = _normalized_blobs(8, 2, seed=1)
        spsa_cfg = SpsaConfig(maxiter=15, seed=3)
        params1, history1 = train(x, y, cfg, spsa_cfg)
        params2, history2 = train(x, y, cfg, spsa_cfg)
        assert np.array_equal(params1, params2)
        assert np.array_equal(history1, history2)

    def test_separable_blobs_reach_high_train_accuracy(self):
        cfg = small_cfg(2, seed=1)
        x, y = _normalized_blobs(24, 2, seed=3)
        params, _ = train(x, y, cfg, SpsaConfig(maxiter=150, seed=1))
        accuracy = np.mean((predict_batch(x, params, cfg) >= 0.5) == y)
        assert accuracy >= 0.9

    def test_loss_matches_evaluator_history(self):
        # the recorded entry is the mean loss of independent predictions at the
        # two points iteration 0 perturbs to, rebuilt from the seeds
        cfg = small_cfg(2, seed=4)
        x, y = _normalized_blobs(6, 2, seed=3)
        spsa_cfg = SpsaConfig(maxiter=1, seed=2)
        _, history = train(x, y, cfg, spsa_cfg)
        theta0, step = _first_perturbation(cfg, spsa_cfg)
        losses = [binary_cross_entropy(y, predict_batch(x, theta0 + sign * step, cfg),
                                       cfg.loss_clip_epsilon) for sign in (1, -1)]
        assert history[0] == pytest.approx(0.5 * sum(losses), abs=1e-12)

    def test_shot_loss_uses_evaluation_counter(self):
        # one iteration evaluates the loss twice, with counters 0 and 1;
        # the recorded value is the exact mean of the two
        cfg = small_cfg(2, shots=64, seed=4)
        x, y = _normalized_blobs(6, 2, seed=3)
        spsa_cfg = SpsaConfig(maxiter=1, seed=2)
        _, history = train(x, y, cfg, spsa_cfg)
        theta0, step = _first_perturbation(cfg, spsa_cfg)
        states = encode(x, cfg.feature_map)
        losses = [binary_cross_entropy(y, p_ad(states, theta0 + sign * step, cfg, counter),
                                       cfg.loss_clip_epsilon)
                  for counter, sign in enumerate((1, -1))]
        assert history[0] == 0.5 * (losses[0] + losses[1])


def _first_perturbation(cfg, spsa_cfg):
    """The initial parameters and SPSA's first step c_0 * delta_0."""
    theta0 = init_params(cfg.ansatz, cfg.seed)
    delta = 2.0 * np.random.default_rng(spsa_cfg.seed).integers(0, 2, size=theta0.size) - 1.0
    return theta0, gain_sequences(spsa_cfg, 0)[1] * delta


class TestPredictBatch:
    def test_empty(self):
        cfg = small_cfg(2)
        p = predict_batch([], init_params(cfg.ansatz, 0), cfg)
        assert p.shape == (0,)

    def test_single_matches_forward(self):
        cfg = small_cfg(2)
        params = init_params(cfg.ansatz, 0)
        x = [0.3, 0.8]
        expect = p_ad(encode([x], cfg.feature_map), params, cfg)
        assert np.array_equal(predict_batch([x], params, cfg), expect)

    def test_order_preserved(self):
        for n in (2, 5):  # n = 5 shows batch-dependent rounding that n = 2 can miss
            cfg = small_cfg(n)
            params = init_params(cfg.ansatz, 1)
            rng = np.random.default_rng(5)
            xs = rng.uniform(0, 1, size=(21, n))
            preds = predict_batch(xs, params, cfg)
            assert len(preds) == 21
            for i, x in enumerate(xs):
                assert preds[i] == predict_batch([x], params, cfg)[0]

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
        states = oracles.classifier_states(xs, cfg.feature_map, cfg.ansatz, params)
        for pred, amps in zip(preds, states):
            expect = oracles.p_even_bruteforce(oracles.State(n, amps), measured)
            assert pred == pytest.approx(expect, abs=1e-12)

    def test_shot_rows_use_their_own_seeds(self):
        cfg = small_cfg(3, shots=128, seed=9)
        params = init_params(cfg.ansatz, 2)
        xs = np.random.default_rng(6).uniform(0, 1, size=(7, 3))
        preds = predict_batch(xs, params, cfg)
        exact = p_ad(encode(xs, cfg.feature_map), params, replace(cfg, shots=None))
        for i, pred in enumerate(preds):
            assert pred == philox_count(cfg.seed, 0, i, cfg.shots, exact[i]) / cfg.shots


def test_public_names_resolve():
    for name in vqclass.__all__:
        assert getattr(vqclass, name) is not None, name
