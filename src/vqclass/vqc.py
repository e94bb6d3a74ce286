"""The classifier: feature map + ansatz composition, parity readout,
cross-entropy loss, training, and batch prediction. Training and
prediction share one batched path: one ``encode`` call per batch, then
``p_ad`` runs the ansatz on all states at once and hands them to
``readout``.

Readout measures the configured qubits (default the first two) and maps
each outcome by the parity of its '1' count: even (including zero) is
the positive AD class, odd is NON_AD. The class-1 probability is the
summed even-parity mass of the final state. In exact mode that mass is
returned; in shot mode the even-outcome count of ``shots`` measurements
is one seeded Binomial(shots, mass) draw, and its frequency is returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Sequence

import numpy as np

from .ansatz import AnsatzSpec, apply_ansatz, init_params
from .errors import BindingError, ConfigError
from .featmap import FeatureMapSpec, encode
from .prep import Dataset
from .spsa import SpsaConfig, TrainingRun, spsa_minimize


class Label(IntEnum):
    NON_AD = 0
    AD = 1


@dataclass(frozen=True)
class VqcConfig:
    """Everything needed to evaluate the classifier on one sample.

    ``shots`` None means exact probabilities from the statevector; an
    integer means that many seeded measurement samples per state read out.
    """

    feature_map: FeatureMapSpec
    ansatz: AnsatzSpec
    measured_qubits: tuple[int, ...] = (0, 1)
    shots: int | None = None
    seed: int = 0
    loss_clip_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured_qubits", tuple(int(q) for q in self.measured_qubits))
        if self.feature_map.n_qubits != self.ansatz.n_qubits:
            raise ConfigError(
                f"feature map has {self.feature_map.n_qubits} qubits but "
                f"ansatz has {self.ansatz.n_qubits}"
            )
        n = self.feature_map.n_qubits
        if not self.measured_qubits:
            raise ConfigError("measured_qubits must be non-empty")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise ConfigError(f"measured_qubits must be distinct, got {self.measured_qubits}")
        if any(q < 0 or q >= n for q in self.measured_qubits):
            raise ConfigError(f"measured_qubits {self.measured_qubits} out of range for n={n}")
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1 or None, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.loss_clip_epsilon < 0.5:
            raise ConfigError(
                f"loss_clip_epsilon must be in (0, 0.5), got {self.loss_clip_epsilon}"
            )

    @property
    def n_qubits(self) -> int:
        return self.feature_map.n_qubits


@dataclass(frozen=True)
class Prediction:
    p_ad: float
    label: Label


@functools.lru_cache(maxsize=8)
def _even_parity_mask(n_qubits: int, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """0/1 mask of the basis indices with an even number of 1s on the
    measured qubits, built once per configuration."""
    idx = np.arange(1 << n_qubits)
    acc = np.zeros_like(idx)
    for q in measured_qubits:
        acc ^= (idx >> (n_qubits - 1 - q)) & 1
    even = (acc == 0).astype(np.float64)
    even.flags.writeable = False
    return even


def shot_seed(base_seed: int, sample_index: int, eval_counter: int) -> int:
    """Per-state sampling seed, mixed with numpy's SeedSequence so the
    result is independent of evaluation order or parallelism."""
    seq = np.random.SeedSequence((base_seed, sample_index, eval_counter))
    return int(seq.generate_state(1, np.uint64)[0])


def p_ad(
    states: np.ndarray, params: Sequence[float], cfg: VqcConfig, eval_counter: int = 0
) -> np.ndarray:
    """AD-class probability of each encoded state after the ansatz.

    ``states`` holds one encoded state per row, shape (N, 2^n); it is left
    unchanged. The ansatz runs on a copy, which ``readout`` then reads.
    """
    n = cfg.n_qubits
    states = np.array(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[1] != 1 << n:
        raise BindingError(f"states must have shape (N, {1 << n}), got {states.shape}")
    apply_ansatz(states, cfg.ansatz, params)
    return readout(states, cfg, eval_counter)


def readout(states: np.ndarray, cfg: VqcConfig, eval_counter: int = 0) -> np.ndarray:
    """Even-parity mass on ``cfg.measured_qubits`` of each state, shape
    (N, 2^n): exact, or the frequency of ``cfg.shots`` seeded samples.

    Each row is read out on its own, so its probability does not depend on
    the batch it comes in. In shot mode row i draws its count with seed
    ``shot_seed(cfg.seed, i, eval_counter)``.
    """
    even = _even_parity_mask(cfg.n_qubits, cfg.measured_qubits)
    mass = ((states.real**2 + states.imag**2) * even).sum(axis=1)
    if cfg.shots is None:
        return mass
    counts = [
        np.random.default_rng(shot_seed(cfg.seed, i, eval_counter)).binomial(cfg.shots, p)
        for i, p in enumerate(np.clip(mass, 0.0, 1.0).tolist())
    ]
    return np.array(counts, dtype=np.float64) / cfg.shots


def binary_cross_entropy(
    y: Sequence[int], p: Sequence[float], eps: float = 1e-9
) -> float:
    """Mean BCE with predictions clipped into [eps, 1 - eps]."""
    y_arr = np.asarray(y, dtype=np.float64)
    p_arr = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    return float(-np.mean(y_arr * np.log(p_arr) + (1.0 - y_arr) * np.log(1.0 - p_arr)))


class _LossEvaluator:
    """Loss over a dataset as a function of the parameter vector.

    Encodes every sample once up front (the feature-map states never
    change during training). Each call increments an evaluation counter
    used only for shot-mode seed derivation.
    """

    def __init__(self, dataset: Dataset, cfg: VqcConfig):
        if len(dataset) == 0:
            raise ConfigError("dataset must be non-empty")
        bad = set(np.unique(dataset.labels)) - {0, 1}
        if bad:
            raise ConfigError(f"labels must be 0 (NON_AD) or 1 (AD), got extras {sorted(bad)}")
        self._encoded = encode(dataset.features, cfg.feature_map)
        self._labels = np.asarray(dataset.labels, dtype=np.float64)
        self._cfg = cfg
        self.eval_counter = 0

    def __call__(self, params: np.ndarray) -> float:
        counter = self.eval_counter
        self.eval_counter += 1
        p = p_ad(self._encoded, params, self._cfg, counter)
        return binary_cross_entropy(self._labels, p, self._cfg.loss_clip_epsilon)


def loss(dataset: Dataset, params: Sequence[float], cfg: VqcConfig) -> float:
    """Mean binary cross-entropy of the classifier over the dataset."""
    evaluator = _LossEvaluator(dataset, cfg)
    return evaluator(np.asarray(params, dtype=np.float64))


def train(train_set: Dataset, cfg: VqcConfig, spsa_cfg: SpsaConfig) -> TrainingRun:
    """Minimize the training loss with the perturbation optimizer.

    Initial parameters are drawn from ``cfg.seed``; the optimizer's own
    draws come from ``spsa_cfg.seed``. Fully deterministic given both.
    """
    theta0 = init_params(cfg.ansatz, cfg.seed)
    evaluator = _LossEvaluator(train_set, cfg)
    run = spsa_minimize(evaluator, theta0, spsa_cfg)
    return replace(run, seeds_used={"init": cfg.seed, **run.seeds_used})


def predict_batch(
    samples: Sequence[Sequence[float]], params: Sequence[float], cfg: VqcConfig
) -> list[Prediction]:
    """Predictions for a batch of normalized feature vectors, order
    preserved. In shot mode row i samples with ``shot_seed(cfg.seed, i, 0)``."""
    if len(samples) == 0:
        return []
    states = encode(samples, cfg.feature_map)
    probs = p_ad(states, params, cfg)
    return [Prediction(float(p), Label.AD if p >= 0.5 else Label.NON_AD) for p in probs]
