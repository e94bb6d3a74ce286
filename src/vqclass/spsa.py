"""Simultaneous-perturbation stochastic approximation minimizer.

Gradient-free: each iteration perturbs all coordinates at once along a random Rademacher
direction. Gain schedules follow the standard power-law decay a_k = a / (k + 1 + A)^alpha,
c_k = c / (k + 1)^gamma."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, OptimizerError
from .statevec import COUNT_BYTES, physical_memory


@dataclass(frozen=True)
class SpsaConfig:
    """Gain-sequence constants, iteration budget, and seed.

    ``A`` is the stability constant; when None it defaults to
    0.1 * maxiter, the usual rule of thumb.
    """

    maxiter: int = 500
    a: float = 0.15
    c: float = 0.2
    alpha: float = 0.602
    gamma: float = 0.101
    A: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.maxiter < 0:
            raise ConfigError(f"maxiter must be >= 0, got {self.maxiter}")
        if self.maxiter * COUNT_BYTES > physical_memory():
            raise ConfigError(f"maxiter = {self.maxiter} needs more than the physical "
                              f"memory at {COUNT_BYTES} B per iteration")
        for name in ("a", "c", "A"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.a <= 0 or self.c <= 0:
            raise ConfigError(f"a and c must be positive, got a={self.a}, c={self.c}")
        if not 0 < self.gamma < self.alpha <= 1:
            raise ConfigError(
                f"need 0 < gamma < alpha <= 1, got alpha={self.alpha}, gamma={self.gamma}"
            )
        if self.A is not None and self.A < 0:
            raise ConfigError(f"A must be >= 0, got {self.A}")

    @property
    def stability(self) -> float:
        return 0.1 * self.maxiter if self.A is None else self.A


def gain_sequences(cfg: SpsaConfig, k: int) -> tuple[float, float]:
    """Step size a_k and perturbation size c_k at iteration k >= 0."""
    if k < 0:
        raise ConfigError(f"iteration index must be >= 0, got {k}")
    a_k = cfg.a / (k + 1 + cfg.stability) ** cfg.alpha
    c_k = cfg.c / (k + 1) ** cfg.gamma
    return a_k, c_k


def gradient_estimate(
    objective: Callable[[np.ndarray], float],
    theta: np.ndarray,
    c_k: float,
    delta: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Two-sided simultaneous-perturbation gradient estimate, and (f+ + f-) / 2.

    g[i] = (f(theta + c_k*delta) - f(theta - c_k*delta)) / (2 c_k delta[i]);
    with Rademacher delta this is the difference scaled by delta itself.
    """
    f_plus = float(objective(theta + c_k * delta))
    f_minus = float(objective(theta - c_k * delta))
    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
        raise OptimizerError(
            f"non-finite objective at perturbed point: f+={f_plus}, f-={f_minus}"
        )
    return (f_plus - f_minus) / (2.0 * c_k) * delta, 0.5 * (f_plus + f_minus)


def spsa_minimize(
    objective: Callable[[np.ndarray], float],
    theta0: Sequence[float],
    cfg: SpsaConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``objective`` from ``theta0``: (final params, loss history), deterministic
    for a fixed seed. Each iteration costs exactly two objective evaluations, at the
    perturbed points; history entry k is their mean, the loss estimate at theta_k before
    iteration k's update."""
    theta = np.array(theta0, dtype=np.float64, copy=True)
    if theta.ndim != 1 or theta.size == 0:
        raise ConfigError(f"theta0 must be a non-empty vector, got shape {theta.shape}")
    rng = np.random.default_rng(cfg.seed)
    history = np.empty(cfg.maxiter, dtype=np.float64)
    for k in range(cfg.maxiter):
        a_k, c_k = gain_sequences(cfg, k)
        delta = 2.0 * rng.integers(0, 2, size=theta.size) - 1.0
        try:
            grad, history[k] = gradient_estimate(objective, theta, c_k, delta)
        except OptimizerError as exc:
            raise OptimizerError(f"iteration {k}: {exc}") from None
        theta = theta - a_k * grad
    return theta, history
