"""Command-line pipeline: prep, train, eval, kernel, and report verbs.

Every run is driven by a single JSON config with all seeds explicit, so
repeating a command with the same config and inputs yields byte-identical
artifacts. Artifacts are write-once per output directory; pass --force
to overwrite.

Exit codes: 0 success, 1 user/config error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import metrics as metrics_mod
from . import prep as prep_mod
from . import vqc as vqc_mod
from .ansatz import AnsatzSpec
from .errors import ConfigError, DataError, VqclassError
from .featmap import FeatureMapSpec
from .qkernel import kernel_matrix, kernel_to_csv
from .spsa import SpsaConfig

MODEL_FILE = "model.json"
SPLIT_TRAIN_FILE = "split_train.csv"
SPLIT_TEST_FILE = "split_test.csv"
LOSS_FILE = "loss_history.csv"
METRICS_FILE = "metrics.json"
PREDICTIONS_FILE = "predictions.csv"
SCATTER_FILE = "scatter2d.csv"
KERNEL_TRAIN_FILE = "kernel_train.csv"
KERNEL_TEST_FILE = "kernel_test.csv"
CONFIG_ECHO_FILE = "config_echo.json"


@dataclass
class RunConfig:
    """Parsed and validated run configuration (see README for the schema)."""

    data_path: str
    label_column: str
    positive_label: str
    output_dir: str
    pca_k: int
    test_fraction: float
    split_seed: int
    feature_map: FeatureMapSpec
    ansatz: AnsatzSpec
    measured_qubits: tuple[int, ...]
    shots: int | None
    eval_shots: int | None
    vqc_seed: int
    loss_clip_epsilon: float
    spsa: SpsaConfig

    @property
    def vqc_config(self) -> vqc_mod.VqcConfig:
        return vqc_mod.VqcConfig(
            feature_map=self.feature_map,
            ansatz=self.ansatz,
            measured_qubits=self.measured_qubits,
            shots=self.shots,
            seed=self.vqc_seed,
            loss_clip_epsilon=self.loss_clip_epsilon,
        )

    @property
    def eval_vqc_config(self) -> vqc_mod.VqcConfig:
        return dataclasses.replace(self.vqc_config, shots=self.eval_shots)

    def to_dict(self) -> dict:
        return {
            "data": {
                "path": self.data_path,
                "label_column": self.label_column,
                "positive_label": self.positive_label,
            },
            "prep": {
                "pca_k": self.pca_k,
                "test_fraction": self.test_fraction,
                "seed": self.split_seed,
            },
            "feature_map": {
                "reps": self.feature_map.reps,
                "entanglement": self.feature_map.entanglement,
            },
            "ansatz": {
                "reps": self.ansatz.reps,
                "entanglement": self.ansatz.entanglement,
            },
            "vqc": {
                "measured_qubits": list(self.measured_qubits),
                "shots": self.shots,
                "eval_shots": self.eval_shots,
                "seed": self.vqc_seed,
                "loss_clip_epsilon": self.loss_clip_epsilon,
            },
            "spsa": {
                "maxiter": self.spsa.maxiter,
                "a": self.spsa.a,
                "c": self.spsa.c,
                "alpha": self.spsa.alpha,
                "gamma": self.spsa.gamma,
                "A": self.spsa.A,
                "seed": self.spsa.seed,
            },
            "output_dir": self.output_dir,
        }


def _section(raw: dict, name: str, allowed: set[str], required: set[str]) -> dict:
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    missing = required - set(sec)
    if missing:
        raise ConfigError(f"config section {name!r} missing keys: {sorted(missing)}")
    return sec


def _float(value, name: str) -> float:
    """A finite JSON number; bool, NaN, Infinity and integers beyond the
    float range raise ConfigError."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _int(value, name: str) -> int:
    """A JSON integer; bool and non-integral or non-finite numbers raise ConfigError."""
    if not _float(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"data", "prep", "feature_map", "ansatz", "vqc", "spsa", "output_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    if "output_dir" not in raw:
        raise ConfigError("config missing required key 'output_dir'")

    data = _section(raw, "data", {"path", "label_column", "positive_label"},
                    {"path", "label_column", "positive_label"})
    prep_sec = _section(raw, "prep", {"pca_k", "test_fraction", "seed"}, set())
    fmap_sec = _section(raw, "feature_map", {"reps", "entanglement"}, set())
    ansatz_sec = _section(raw, "ansatz", {"reps", "entanglement"}, set())
    vqc_sec = _section(
        raw, "vqc",
        {"measured_qubits", "shots", "eval_shots", "seed", "loss_clip_epsilon"},
        set(),
    )
    spsa_sec = _section(
        raw, "spsa", {"maxiter", "a", "c", "alpha", "gamma", "A", "seed"}, set()
    )

    pca_k = _int(prep_sec.get("pca_k", 5), "prep.pca_k")
    shots = vqc_sec.get("shots", None)
    # eval_shots falls back to the training setting when omitted
    eval_shots = vqc_sec.get("eval_shots", shots)
    measured = vqc_sec.get("measured_qubits", [0, 1])
    if not isinstance(measured, list):
        raise ConfigError(f"vqc.measured_qubits must be a list, got {measured!r}")
    return RunConfig(
        data_path=str(data["path"]),
        label_column=str(data["label_column"]),
        positive_label=str(data["positive_label"]),
        output_dir=str(raw["output_dir"]),
        pca_k=pca_k,
        test_fraction=_float(prep_sec.get("test_fraction", 0.25), "prep.test_fraction"),
        split_seed=_int(prep_sec.get("seed", 7), "prep.seed"),
        feature_map=FeatureMapSpec(
            n_qubits=pca_k,
            reps=_int(fmap_sec.get("reps", 1), "feature_map.reps"),
            entanglement=str(fmap_sec.get("entanglement", "full")),
        ),
        ansatz=AnsatzSpec(
            n_qubits=pca_k,
            reps=_int(ansatz_sec.get("reps", 2), "ansatz.reps"),
            entanglement=str(ansatz_sec.get("entanglement", "linear")),
        ),
        measured_qubits=tuple(_int(q, "vqc.measured_qubits") for q in measured),
        shots=None if shots is None else _int(shots, "vqc.shots"),
        eval_shots=None if eval_shots is None else _int(eval_shots, "vqc.eval_shots"),
        vqc_seed=_int(vqc_sec.get("seed", 11), "vqc.seed"),
        loss_clip_epsilon=_float(vqc_sec.get("loss_clip_epsilon", 1e-9), "vqc.loss_clip_epsilon"),
        spsa=SpsaConfig(
            maxiter=_int(spsa_sec.get("maxiter", 500), "spsa.maxiter"),
            a=_float(spsa_sec.get("a", 0.15), "spsa.a"),
            c=_float(spsa_sec.get("c", 0.2), "spsa.c"),
            alpha=_float(spsa_sec.get("alpha", 0.602), "spsa.alpha"),
            gamma=_float(spsa_sec.get("gamma", 0.101), "spsa.gamma"),
            A=None if spsa_sec.get("A") is None else _float(spsa_sec["A"], "spsa.A"),
            seed=_int(spsa_sec.get("seed", 13), "spsa.seed"),
        ),
    )


def _artifact_path(cfg: RunConfig, name: str, force: bool, must_write: bool = True) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    if must_write and path.exists() and not force:
        raise ConfigError(f"refusing to overwrite existing artifact {path}; pass --force")
    return path


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _read_model(cfg: RunConfig) -> dict:
    path = Path(cfg.output_dir) / MODEL_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run the prep command first")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_encoded_dataset(cfg: RunConfig) -> prep_mod.Dataset:
    table = prep_mod.load_csv(cfg.data_path, cfg.label_column, cfg.positive_label)
    return prep_mod.one_hot_encode(table)


def _split_from_model(
    dataset: prep_mod.Dataset, model: dict
) -> tuple[prep_mod.Dataset, prep_mod.Dataset]:
    train_ids = np.asarray(model["split"]["train_ids"], dtype=np.int64)
    test_ids = np.asarray(model["split"]["test_ids"], dtype=np.int64)
    return prep_mod.subset(dataset, train_ids), prep_mod.subset(dataset, test_ids)


def _normalized_features(features: np.ndarray, model: dict) -> np.ndarray:
    pca = prep_mod.pca_from_dict(model["prep"]["pca"])
    mm = prep_mod.minmax_from_dict(model["prep"]["minmax"])
    return prep_mod.minmax_transform(mm, prep_mod.pca_transform(pca, features))


def _id_csv(ids: np.ndarray) -> str:
    return "sample_id\n" + "".join(f"{int(i)}\n" for i in ids)


def cmd_prep(cfg: RunConfig, force: bool = False) -> None:
    """Fit the preprocessing models on the training split and persist them."""
    dataset = _load_encoded_dataset(cfg)
    if cfg.pca_k > dataset.features.shape[1]:
        raise ConfigError(
            f"pca_k = {cfg.pca_k} exceeds the {dataset.features.shape[1]} encoded "
            f"feature columns of {cfg.data_path}"
        )
    model_path = _artifact_path(cfg, MODEL_FILE, force)
    train_path = _artifact_path(cfg, SPLIT_TRAIN_FILE, force)
    test_path = _artifact_path(cfg, SPLIT_TEST_FILE, force)
    train, test = prep_mod.stratified_split(dataset, cfg.test_fraction, cfg.split_seed)
    pca = prep_mod.pca_fit(train.features, cfg.pca_k)
    mm = prep_mod.minmax_fit(prep_mod.pca_transform(pca, train.features))
    model = {
        "prep": {
            "pca": prep_mod.pca_to_dict(pca),
            "minmax": prep_mod.minmax_to_dict(mm),
            "feature_names": dataset.feature_names,
            "label_column": cfg.label_column,
            "positive_label": cfg.positive_label,
        },
        "split": {
            "train_ids": [int(i) for i in train.sample_ids],
            "test_ids": [int(i) for i in test.sample_ids],
        },
    }
    _write_json(model_path, model)
    _write_text(train_path, _id_csv(train.sample_ids))
    _write_text(test_path, _id_csv(test.sample_ids))


def cmd_train(cfg: RunConfig, force: bool = False) -> None:
    """Train the classifier on the persisted split and record the run."""
    model = _read_model(cfg)
    if "params" in model and not force:
        raise ConfigError(
            f"{Path(cfg.output_dir) / MODEL_FILE} already holds trained "
            "parameters; pass --force to retrain"
        )
    loss_path = _artifact_path(cfg, LOSS_FILE, force)
    dataset = _load_encoded_dataset(cfg)
    train_raw, _ = _split_from_model(dataset, model)
    x_train = _normalized_features(train_raw.features, model)
    train_set = prep_mod.Dataset(
        x_train, train_raw.labels, [f"pc{j}" for j in range(cfg.pca_k)], train_raw.sample_ids
    )
    run = vqc_mod.train(train_set, cfg.vqc_config, cfg.spsa)
    model["params"] = [float(v) for v in run.final_params]
    model["training"] = {
        "seeds_used": run.seeds_used,
        "feature_map": {"n_qubits": cfg.pca_k, "reps": cfg.feature_map.reps,
                        "entanglement": cfg.feature_map.entanglement},
        "ansatz": {"n_qubits": cfg.pca_k, "reps": cfg.ansatz.reps,
                   "entanglement": cfg.ansatz.entanglement},
        "measured_qubits": list(cfg.measured_qubits),
        "shots": cfg.shots,
        "spsa": {"maxiter": cfg.spsa.maxiter, "a": cfg.spsa.a, "c": cfg.spsa.c,
                 "alpha": cfg.spsa.alpha, "gamma": cfg.spsa.gamma,
                 "A": cfg.spsa.A, "seed": cfg.spsa.seed},
    }
    lines = ["iteration,loss"]
    lines.extend(f"{k},{float(v)!r}" for k, v in enumerate(run.loss_history))
    _write_text(loss_path, "\n".join(lines) + "\n")
    _write_json(Path(cfg.output_dir) / MODEL_FILE, model)


def _label_name(value: int) -> str:
    return vqc_mod.Label(value).name


def cmd_eval(cfg: RunConfig, force: bool = False) -> None:
    """Score the held-out split and write metrics, predictions, scatter."""
    model = _read_model(cfg)
    if "params" not in model:
        raise DataError(
            f"{Path(cfg.output_dir) / MODEL_FILE} has no trained parameters; "
            "run the train command first"
        )
    metrics_path = _artifact_path(cfg, METRICS_FILE, force)
    pred_path = _artifact_path(cfg, PREDICTIONS_FILE, force)
    scatter_path = _artifact_path(cfg, SCATTER_FILE, force)
    dataset = _load_encoded_dataset(cfg)
    train_raw, test_raw = _split_from_model(dataset, model)
    params = np.asarray(model["params"], dtype=np.float64)
    eval_cfg = cfg.eval_vqc_config

    x_test = _normalized_features(test_raw.features, model)
    test_preds = vqc_mod.predict_batch(x_test, params, eval_cfg)
    y_pred = [int(p.label) for p in test_preds]
    p_ad = [p.p_ad for p in test_preds]
    report = metrics_mod.full_report(test_raw.labels.tolist(), y_pred, p_ad)
    if report.ad.auroc is None:
        print(
            "warning: held-out split contains a single class; AUROC is undefined "
            "and reported as null",
            file=sys.stderr,
        )
    _write_json(metrics_path, metrics_mod.report_to_dict(report))

    pred_lines = ["sample_id,p_ad,predicted,true"]
    for sid, pred, true in zip(test_raw.sample_ids, test_preds, test_raw.labels):
        pred_lines.append(
            f"{int(sid)},{float(pred.p_ad)!r},{pred.label.name},{_label_name(int(true))}"
        )
    _write_text(pred_path, "\n".join(pred_lines) + "\n")

    # 2-D scatter source: first two principal coordinates of every sample
    pca = prep_mod.pca_from_dict(model["prep"]["pca"])
    x_train = _normalized_features(train_raw.features, model)
    train_preds = vqc_mod.predict_batch(x_train, params, eval_cfg)
    scatter_lines = ["sample_id,split,pc1,pc2,true,predicted"]
    for split_name, raw, preds in (
        ("train", train_raw, train_preds),
        ("test", test_raw, test_preds),
    ):
        coords = prep_mod.pca_transform(pca, raw.features)
        for i, sid in enumerate(raw.sample_ids):
            pc1 = float(coords[i, 0])
            pc2 = float(coords[i, 1]) if coords.shape[1] > 1 else 0.0
            scatter_lines.append(
                f"{int(sid)},{split_name},{pc1!r},{pc2!r},"
                f"{_label_name(int(raw.labels[i]))},{preds[i].label.name}"
            )
    _write_text(scatter_path, "\n".join(scatter_lines) + "\n")


def cmd_kernel(cfg: RunConfig, force: bool = False) -> None:
    """Export train x train and test x train fidelity kernel matrices."""
    model = _read_model(cfg)
    train_path = _artifact_path(cfg, KERNEL_TRAIN_FILE, force)
    test_path = _artifact_path(cfg, KERNEL_TEST_FILE, force)
    dataset = _load_encoded_dataset(cfg)
    train_raw, test_raw = _split_from_model(dataset, model)
    x_train = _normalized_features(train_raw.features, model)
    x_test = _normalized_features(test_raw.features, model)
    train_ids = [int(i) for i in train_raw.sample_ids]
    test_ids = [int(i) for i in test_raw.sample_ids]
    k_train = kernel_matrix(
        x_train, x_train, cfg.feature_map, row_ids=train_ids, col_ids=train_ids
    )
    k_test = kernel_matrix(
        x_test, x_train, cfg.feature_map, row_ids=test_ids, col_ids=train_ids
    )
    _write_text(train_path, kernel_to_csv(k_train))
    _write_text(test_path, kernel_to_csv(k_test))


def cmd_report(cfg: RunConfig, force: bool = False) -> None:
    """Full pipeline into one directory, plus an echo of the config."""
    cmd_prep(cfg, force)
    cmd_train(cfg, force)
    cmd_eval(cfg, force)
    cmd_kernel(cfg, force)
    _write_json(_artifact_path(cfg, CONFIG_ECHO_FILE, force), cfg.to_dict())


_COMMANDS = {
    "prep": cmd_prep,
    "train": cmd_train,
    "eval": cmd_eval,
    "kernel": cmd_kernel,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqclass",
        description="Variational quantum classifier pipeline over a JSON run config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument(
            "--force", action="store_true", help="overwrite existing artifacts"
        )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # internal failures here, so remap to the user-error code
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config)
        _COMMANDS[args.command](cfg, force=args.force)
    except VqclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
