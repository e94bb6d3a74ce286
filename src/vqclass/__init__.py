"""Variational quantum classifier pipeline for binary tabular classification.

Statevector simulation, a phase-encoding feature map with fidelity
kernels, a trainable RY/RZ + CY/CZ ansatz optimized by simultaneous
perturbation, parity readout, classical preprocessing, and evaluation
metrics, wired together by a reproducible command-line pipeline.
"""

from .ansatz import AnsatzSpec, build_ansatz, init_params
from .errors import (
    BindingError,
    ConfigError,
    DataError,
    EncodingError,
    OptimizerError,
    VqclassError,
)
from .featmap import DataMap, FeatureMapSpec, default_data_map, encode
from .metrics import ConfusionMatrix, MetricsReport, auroc, confusion, full_report
from .prep import Dataset, load_csv, one_hot_encode, stratified_split
from .qkernel import KernelMatrix, kernel_matrix
from .spsa import SpsaConfig, TrainingRun, spsa_minimize
from .statevec import Circuit, GateOp, StateVector, run_circuit, zero_state
from .vqc import Label, Prediction, VqcConfig, p_ad, parity_decode, predict_batch, train

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "BindingError",
    "Circuit",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "DataMap",
    "Dataset",
    "EncodingError",
    "FeatureMapSpec",
    "GateOp",
    "KernelMatrix",
    "Label",
    "MetricsReport",
    "OptimizerError",
    "Prediction",
    "SpsaConfig",
    "StateVector",
    "TrainingRun",
    "VqcConfig",
    "VqclassError",
    "auroc",
    "build_ansatz",
    "confusion",
    "default_data_map",
    "encode",
    "full_report",
    "init_params",
    "kernel_matrix",
    "load_csv",
    "one_hot_encode",
    "p_ad",
    "parity_decode",
    "predict_batch",
    "run_circuit",
    "spsa_minimize",
    "stratified_split",
    "train",
    "zero_state",
]
