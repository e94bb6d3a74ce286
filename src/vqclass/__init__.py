"""Variational quantum classifier pipeline for binary tabular classification.

One fixed circuit, simulated on dense statevectors: a phase-encoding
feature map evaluated in closed form (with fidelity kernels), a
trainable RY/RZ + CY/CZ ansatz run as fused 3-qubit rotation blocks and
CY/CZ block gathers and optimized by simultaneous perturbation, and a parity
readout; plus classical preprocessing and evaluation metrics, wired
together by a reproducible command-line pipeline.
"""

from .ansatz import AnsatzSpec, init_params
from .errors import (
    BindingError,
    ConfigError,
    DataError,
    EncodingError,
    OptimizerError,
    VqclassError,
)
from .featmap import FeatureMapSpec, encode
from .metrics import auroc, confusion, full_report
from .prep import Table, load_csv, one_hot_encode, stratified_split
from .qkernel import kernel_matrix
from .spsa import SpsaConfig, TrainingRun, spsa_minimize
from .vqc import Label, VqcConfig, p_ad, predict_batch, train

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "BindingError",
    "ConfigError",
    "DataError",
    "EncodingError",
    "FeatureMapSpec",
    "Label",
    "OptimizerError",
    "SpsaConfig",
    "Table",
    "TrainingRun",
    "VqcConfig",
    "VqclassError",
    "auroc",
    "confusion",
    "encode",
    "full_report",
    "init_params",
    "kernel_matrix",
    "load_csv",
    "one_hot_encode",
    "p_ad",
    "predict_batch",
    "spsa_minimize",
    "stratified_split",
    "train",
]
