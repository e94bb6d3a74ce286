"""Optimizer tests: gain schedules, convergence, determinism, estimator."""

import numpy as np
import pytest

from vqclass.errors import ConfigError, OptimizerError
from vqclass.spsa import SpsaConfig, gain_sequences, gradient_estimate, spsa_minimize


class TestGainSequences:
    def test_first_step_size(self):
        cfg = SpsaConfig(maxiter=500, a=0.15, alpha=0.602, A=50.0)
        a0, _ = gain_sequences(cfg, 0)
        assert a0 == pytest.approx(0.15 / 51**0.602, rel=1e-12)

    def test_default_stability_constant(self):
        assert SpsaConfig(maxiter=500).stability == pytest.approx(50.0)
        assert SpsaConfig(maxiter=500, A=7.0).stability == 7.0

    def test_perturbation_strictly_decreasing(self):
        cfg = SpsaConfig()
        cs = [gain_sequences(cfg, k)[1] for k in range(50)]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_classical_schedule_limit(self):
        # alpha = 1, gamma ~ 0, A = 0 degenerates to a/(k+1) with constant c
        cfg = SpsaConfig(maxiter=10, a=0.5, c=0.3, alpha=1.0, gamma=1e-12, A=0.0)
        for k in (0, 3, 9):
            a_k, c_k = gain_sequences(cfg, k)
            assert a_k == pytest.approx(0.5 / (k + 1), rel=1e-12)
            assert c_k == pytest.approx(0.3, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SpsaConfig(maxiter=-1)
        with pytest.raises(ConfigError):
            SpsaConfig(a=0.0)
        with pytest.raises(ConfigError):
            SpsaConfig(c=-0.1)
        with pytest.raises(ConfigError):
            SpsaConfig(alpha=0.3, gamma=0.5)
        with pytest.raises(ConfigError):
            SpsaConfig(alpha=1.2)
        for name in ("a", "c", "A"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ConfigError, match=f"^{name} must be finite"):
                    SpsaConfig(**{name: bad})
        with pytest.raises(ConfigError):
            gain_sequences(SpsaConfig(), -1)


class TestMinimize:
    def test_zero_budget_returns_start(self):
        theta0 = np.array([1.0, -2.0, 3.0])
        params, history = spsa_minimize(lambda t: float(t @ t), theta0, SpsaConfig(maxiter=0))
        assert np.array_equal(params, theta0)
        assert history.size == 0

    def test_quadratic_convergence_at_defaults(self):
        target = np.arange(1, 11, dtype=float)
        target /= np.linalg.norm(target)

        def objective(theta):
            return float(np.sum((theta - target) ** 2))

        params, history = spsa_minimize(objective, np.zeros(10), SpsaConfig(maxiter=500, seed=0))
        assert objective(params) < 1e-2
        assert history.size == 500

    def test_deterministic(self):
        cfg = SpsaConfig(maxiter=40, seed=9)
        f = lambda t: float(np.sum(t**2))
        params1, history1 = spsa_minimize(f, np.ones(5), cfg)
        params2, history2 = spsa_minimize(f, np.ones(5), cfg)
        assert np.array_equal(params1, params2)
        assert np.array_equal(history1, history2)

    def test_perturbations_are_rademacher(self):
        cfg = SpsaConfig(maxiter=25, seed=4)
        evals = []

        def probe(theta):
            evals.append(theta.copy())
            return float(np.sum(theta**2))

        _, history = spsa_minimize(probe, np.full(6, 0.5), cfg)
        assert len(evals) == 2 * cfg.maxiter  # the two perturbed points, nothing else
        for k in range(cfg.maxiter):
            plus, minus = evals[2 * k], evals[2 * k + 1]
            _, c_k = gain_sequences(cfg, k)
            delta = (plus - minus) / (2 * c_k)
            np.testing.assert_allclose(np.abs(delta), 1.0, atol=1e-12)
            # the recorded loss is the two-point mean, bit for bit
            assert history[k] == 0.5 * (np.sum(plus**2) + np.sum(minus**2))

    def test_scale_check_eight_of_ten_seeds(self):
        theta0 = np.full(10, 1.0 / np.sqrt(10))
        passed = 0
        for seed in range(10):
            params, _ = spsa_minimize(
                lambda t: float(np.sum(t**2)), theta0, SpsaConfig(maxiter=200, seed=seed)
            )
            if float(np.sum(params**2)) <= 0.1:
                passed += 1
        assert passed >= 8

    def test_nonfinite_objective_names_iteration(self):
        calls = {"n": 0}

        def exploding(theta):
            calls["n"] += 1
            # calls 5 and 6 are iteration 2's; the first non-finite one is its f-
            return np.inf if calls["n"] > 5 else float(np.sum(theta**2))

        with pytest.raises(OptimizerError, match="iteration 2"):
            spsa_minimize(exploding, np.ones(3), SpsaConfig(maxiter=10, seed=0))

    def test_empty_theta_rejected(self):
        with pytest.raises(ConfigError):
            spsa_minimize(lambda t: 0.0, np.zeros(0), SpsaConfig(maxiter=1))


class TestGradientEstimator:
    def test_unbiased_on_quadratic(self):
        # average over 1e5 Rademacher draws matches the analytic gradient
        rng = np.random.default_rng(0)
        diag = np.array([1.5, 0.7, 2.2])
        theta = np.array([0.9, -1.1, 0.4])

        def objective(t):
            return float(t @ (diag * t))

        analytic = 2.0 * diag * theta
        draws = 100_000
        deltas = 2.0 * rng.integers(0, 2, size=(draws, 3)) - 1.0
        total = np.zeros(3)
        for delta in deltas:
            total += gradient_estimate(objective, theta, 0.05, delta)[0]
        mean = total / draws
        np.testing.assert_allclose(mean, analytic, rtol=0.02)

    def test_nonfinite_rejected(self):
        with pytest.raises(OptimizerError):
            gradient_estimate(lambda t: np.nan, np.ones(2), 0.1, np.ones(2))
