"""The classifier on plain arrays: feature map and ansatz, parity readout,
cross-entropy loss, SPSA training and batch prediction.

``train`` takes the normalized feature matrix and its 0/1 labels; ``predict_batch``
returns one class-1 probability per row. Readout measures the configured qubits (default
the first two) and maps each outcome by the parity of its '1' count: even (zero
included) is the positive AD class, odd is NON_AD. The class-1 probability is the summed
even-parity mass of the final state: in exact mode that mass, in shot mode the frequency
of one Binomial(shots, mass) draw per row (``_draw``)."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .ansatz import AnsatzSpec, apply_ansatz, build_ansatz, check_measured, init_params
from .errors import BindingError, ConfigError
from .featmap import FeatureMapSpec, encode
from .spsa import SpsaConfig, spsa_minimize
from .statevec import row_blocks


class Label(IntEnum):
    NON_AD = 0
    AD = 1


@dataclass(frozen=True)
class VqcConfig:
    """Everything needed to evaluate the classifier on one sample. ``shots`` None means
    exact probabilities; an integer, that many seeded measurements per state read out."""

    feature_map: FeatureMapSpec
    ansatz: AnsatzSpec
    measured_qubits: tuple[int, ...] = (0, 1)
    shots: int | None = None
    seed: int = 0
    loss_clip_epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.feature_map.n_qubits != self.ansatz.n_qubits:
            raise ConfigError(
                f"feature map has {self.feature_map.n_qubits} qubits but "
                f"ansatz has {self.ansatz.n_qubits}"
            )
        measured = check_measured(self.measured_qubits, self.n_qubits)
        object.__setattr__(self, "measured_qubits", measured)
        if self.shots is not None and not 1 <= self.shots <= np.iinfo(np.int64).max:
            # numpy draws the binomial count as a C long
            raise ConfigError(f"shots must be in [1, 2**63 - 1] or None, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.loss_clip_epsilon < 0.5:
            raise ConfigError(
                f"loss_clip_epsilon must be in (0, 0.5), got {self.loss_clip_epsilon}"
            )

    @property
    def n_qubits(self) -> int:
        return self.feature_map.n_qubits


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


def p_ad(
    states: np.ndarray, params: Sequence[float], cfg: VqcConfig, eval_counter: int = 0
) -> np.ndarray:
    """AD-class probability of each encoded state, one per row of ``states``, (N, 2^n),
    which is left unchanged, after the ansatz bound to ``params``. The rows run in even
    blocks of at most ``BLOCK_BYTES`` or one row (``statevec.row_blocks``); a row's result
    does not depend on its block. Shot mode draws with ``eval_counter``."""
    n = cfg.n_qubits
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[1] != 1 << n:
        raise BindingError(f"states must have shape (N, {1 << n}), got {states.shape}")
    layers = build_ansatz(cfg.ansatz, params, cfg.measured_qubits)
    blocks = row_blocks(len(states), 16 << n)  # 16 B per amplitude
    # allocated once, for the largest block (the rows per block, rounded up); the gates
    # would otherwise allocate temporaries per block
    work = np.empty((2, -(-len(states) // max(1, len(blocks))) << n), np.complex128)
    mass = np.empty(len(states))
    for block in blocks:
        mass[block] = _parity_mass(apply_ansatz(states[block], cfg.ansatz, layers, work), cfg)
    return _draw(mass, cfg, eval_counter)


def _parity_mass(states: np.ndarray, cfg: VqcConfig) -> np.ndarray:
    """Even-parity mass on ``cfg.measured_qubits`` of each state, batch-last (2^n, N)."""
    probs = states.real**2
    probs += states.imag**2  # in place: the readout's temporaries stay at one block
    probs *= _even_parity_mask(cfg.n_qubits, cfg.measured_qubits)[:, None]
    # summed row-major, so each row is added in numpy's pairwise order whatever N
    return np.ascontiguousarray(probs.T).sum(axis=1)


def _draw(mass: np.ndarray, cfg: VqcConfig, eval_counter: int) -> np.ndarray:
    """``mass`` in exact mode, else each row's shot frequency. Row i draws from its own
    counter-based Philox stream (Salmon et al., SC 2011), ``Generator(Philox(key=word |
    (i << 64)))`` with one word of ``SeedSequence((seed, eval_counter))``, re-keyed in
    place: its count depends only on the seed, i, the counter and its mass."""
    if cfg.shots is None:
        return mass
    word = np.random.SeedSequence((cfg.seed, eval_counter)).generate_state(1, np.uint64)[0]
    bitgen = np.random.Philox(key=int(word))  # an int: a list key would round through float64
    rng, state = np.random.Generator(bitgen), bitgen.state  # counter 0, buffer empty
    counts = np.empty(len(mass))
    for i, p in enumerate(np.clip(mass, 0.0, 1.0).tolist()):
        state["state"]["key"][1] = i
        bitgen.state = state  # every row starts from the fresh state under its own key
        counts[i] = rng.binomial(cfg.shots, p)
    return counts / cfg.shots


def binary_cross_entropy(
    y: Sequence[int], p: Sequence[float], eps: float = 1e-9
) -> float:
    """Mean BCE of 0/1 labels ``y`` with predictions clipped into [eps, 1 - eps]:
    one log per row, of p where y is 1 and of 1 - p where it is 0."""
    p_arr = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    return float(-np.mean(np.log(np.where(np.asarray(y) == 1, p_arr, 1.0 - p_arr))))


def train(
    x: np.ndarray, y: Sequence[int], cfg: VqcConfig, spsa_cfg: SpsaConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the cross-entropy of the classifier on normalized features ``x`` (N, n) and
    0/1 labels ``y`` by SPSA: returns (params, loss history). The samples are encoded
    once. Evaluation k (from 0) draws its shots with eval counter k. Initial parameters
    are drawn from ``cfg.seed``, the optimizer's own draws from ``spsa_cfg.seed``."""
    y = np.asarray(y)
    if y.size == 0 or y.shape != (len(x),):
        raise ConfigError(f"need a non-empty training set with one label per row, got "
                          f"{len(x)} rows and labels of shape {y.shape}")
    bad = set(y.tolist()) - {0, 1}  # not np.unique, which imports numpy.ma
    if bad:
        raise ConfigError(f"labels must be 0 (NON_AD) or 1 (AD), got extras {sorted(bad)}")
    states = encode(x, cfg.feature_map)
    counter = itertools.count()

    def objective(params: np.ndarray) -> float:
        p = p_ad(states, params, cfg, next(counter))
        return binary_cross_entropy(y, p, cfg.loss_clip_epsilon)

    return spsa_minimize(objective, init_params(cfg.ansatz, cfg.seed), spsa_cfg)


def predict_batch(
    samples: Sequence[Sequence[float]], params: Sequence[float], cfg: VqcConfig
) -> np.ndarray:
    """Class-1 probability of each normalized feature vector, shape (N,),
    order preserved. In shot mode row i draws with eval counter 0."""
    if len(samples) == 0:
        return np.empty(0)
    return p_ad(encode(samples, cfg.feature_map), params, cfg)


def classify(p: np.ndarray) -> np.ndarray:
    """0/1 class of each class-1 probability: AD where ``p >= 0.5``."""
    return (np.asarray(p) >= 0.5).astype(int)
