"""Command-line pipeline: prep, train, eval, kernel, and report verbs.

Every run is driven by a single JSON config with all seeds explicit, so
repeating a command with the same config and inputs yields byte-identical
artifacts. Artifacts are write-once per output directory; pass --force
to overwrite. ``prep`` records the resolved config and the sha256 of the
input in model.json, and train, eval and kernel refuse to run when
either has changed since.

Exit codes: 0 success, 1 user/config error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

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


def _seed(value, name: str) -> int:
    """A non-negative integer, as numpy's seeding needs."""
    if _int(value, name) < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return int(value)


def _fraction(value, name: str) -> float:
    if not 0.0 < _float(value, name) < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), got {value!r}")
    return float(value)


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _int_list(value, name: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [_int(v, name) for v in value]


def _optional(parse):
    """``parse`` that lets JSON null through as None."""
    return lambda value, name: None if value is None else parse(value, name)


def _same_as(key: str):
    """A default that copies the resolved value of another key."""
    return lambda values: values[key]


REQUIRED = object()  # the default of a key every config must give

# Every config key, as "section.key" or a top-level name: (parser, default).
# The order is that of config_echo.json and of model.json's config record.
SCHEMA = {
    "data.path": (_str, REQUIRED),
    "data.label_column": (_str, REQUIRED),
    "data.positive_label": (_str, REQUIRED),
    "prep.pca_k": (_int, 5),
    "prep.test_fraction": (_fraction, 0.25),
    "prep.seed": (_seed, 7),
    "feature_map.reps": (_int, 1),
    "feature_map.entanglement": (_str, "full"),
    "ansatz.reps": (_int, 2),
    "ansatz.entanglement": (_str, "linear"),
    "vqc.measured_qubits": (_int_list, [0, 1]),
    "vqc.shots": (_optional(_int), None),
    "vqc.eval_shots": (_optional(_int), _same_as("vqc.shots")),
    "vqc.seed": (_seed, 11),
    "vqc.loss_clip_epsilon": (_float, 1e-9),
    "spsa.maxiter": (_int, 500),
    "spsa.a": (_float, 0.15),
    "spsa.c": (_float, 0.2),
    "spsa.alpha": (_float, 0.602),
    "spsa.gamma": (_float, 0.101),
    "spsa.A": (_optional(_float), None),
    "spsa.seed": (_seed, 13),
    "output_dir": (_str, REQUIRED),
}
# keys left out of model.json's config record: changing them after prep is allowed
NOT_RECORDED = ("output_dir", "data.path", "vqc.eval_shots")


@dataclass(frozen=True)
class RunConfig:
    """A validated run config: the resolved value of every SCHEMA key, and
    the classifier and optimizer settings built from them."""

    values: dict
    vqc: vqc_mod.VqcConfig
    eval_vqc: vqc_mod.VqcConfig  # vqc with shots = vqc.eval_shots
    spsa: SpsaConfig

    @property
    def out(self) -> Path:
        return Path(self.values["output_dir"])

    @property
    def record(self) -> dict:
        """The keys that must not change between prep and a later verb."""
        return {k: v for k, v in self.values.items() if k not in NOT_RECORDED}


def _nested(values: dict) -> dict:
    """Schema-keyed values regrouped into the sections of the config file."""
    out: dict = {}
    for name, value in values.items():
        section, _, key = name.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = value
    return out


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run config against SCHEMA."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    given = {}
    for top, value in raw.items():
        if top in SCHEMA:
            given[top] = value
        elif not any(name.startswith(f"{top}.") for name in SCHEMA):
            raise ConfigError(f"unknown top-level config key {top!r}")
        elif not isinstance(value, dict):
            raise ConfigError(f"config section {top!r} must be an object")
        else:
            unknown = sorted(k for k in value if f"{top}.{k}" not in SCHEMA)
            if unknown:
                raise ConfigError(f"unknown keys in config section {top!r}: {unknown}")
            given.update((f"{top}.{k}", v) for k, v in value.items())
    v: dict = {}
    for name, (parse, default) in SCHEMA.items():
        value = given.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"config missing required key {name!r}")
        v[name] = parse(value(v) if callable(value) else value, name)

    k = v["prep.pca_k"]
    vqc = vqc_mod.VqcConfig(
        feature_map=FeatureMapSpec(k, v["feature_map.reps"], v["feature_map.entanglement"]),
        ansatz=AnsatzSpec(k, v["ansatz.reps"], v["ansatz.entanglement"]),
        measured_qubits=tuple(v["vqc.measured_qubits"]),
        shots=v["vqc.shots"],
        seed=v["vqc.seed"],
        loss_clip_epsilon=v["vqc.loss_clip_epsilon"],
    )
    try:
        eval_vqc = dataclasses.replace(vqc, shots=v["vqc.eval_shots"])
    except ConfigError as exc:
        raise ConfigError(f"vqc.eval_shots: {exc}") from None
    spsa = SpsaConfig(**{n.split(".")[1]: x for n, x in v.items() if n.startswith("spsa.")})
    return RunConfig(v, vqc, eval_vqc, spsa)


def _artifact_path(cfg: RunConfig, name: str, force: bool) -> Path:
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output_dir {cfg.out} is not a directory") from None
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.out}: {exc}") from None
    path = cfg.out / name
    if path.exists() and not force:
        raise ConfigError(f"refusing to overwrite existing artifact {path}; pass --force")
    return path


def _write_text(path: Path, text: str) -> None:
    """Write to a temp file beside ``path``, then rename it into place, so a
    failed write leaves nothing under the artifact's name."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write artifact {path}: {exc}") from None
        raise


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


class Input(NamedTuple):
    """The one-hot encoded input table and the sha256 of its file's bytes."""

    dataset: prep_mod.Dataset
    sha256: str


def _load_input(cfg: RunConfig) -> Input:
    v = cfg.values
    table = prep_mod.load_csv(v["data.path"], v["data.label_column"], v["data.positive_label"])
    return Input(prep_mod.one_hot_encode(table), table.sha256)


class _Split(NamedTuple):
    ids: np.ndarray
    labels: np.ndarray
    pcs: np.ndarray  # principal coordinates
    x: np.ndarray  # pcs min-max scaled into [0, 1]: the encoder's input


def _load_stage(cfg: RunConfig, data: Input) -> tuple[dict, _Split, _Split]:
    """The load stage of train, eval and kernel: model.json, checked against
    the config and input it was prepared from, and its train and test
    splits with the stored PCA and min-max applied."""
    path = cfg.out / MODEL_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run the prep command first")
    try:
        model = json.loads(path.read_text(encoding="utf-8"))
        stored, digest = dict(model["config"]), model["input_sha256"]
        pca = prep_mod.pca_from_dict(model["prep"]["pca"])
        mm = prep_mod.minmax_from_dict(model["prep"]["minmax"])
        ids = [np.asarray(model["split"][key], dtype=np.int64) for key in ("train_ids", "test_ids")]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path} is not a model file written by prep ({exc!r}); "
                        "rerun prep --force") from None
    if digest != data.sha256:
        raise DataError(f"input {cfg.values['data.path']} changed since prep (sha256 "
                        f"{digest} -> {data.sha256}); rerun prep --force")
    record = cfg.record
    for name in {**stored, **record}:  # REQUIRED stands in for a key absent on one side
        if stored.get(name, REQUIRED) != record.get(name, REQUIRED):
            raise ConfigError(
                f"config key {name!r} is {record.get(name)!r} but {path} was prepared "
                f"with {stored.get(name)!r}; rerun prep --force"
            )
    n = len(data.dataset)
    if any(((rows < 0) | (rows >= n)).any() for rows in ids):
        raise DataError(f"{path} has split ids outside the input's {n} rows; rerun prep --force")
    splits = []
    for rows in ids:
        part = prep_mod.subset(data.dataset, rows)
        pcs = prep_mod.pca_transform(pca, part.features)
        splits.append(_Split(part.sample_ids, part.labels, pcs, prep_mod.minmax_transform(mm, pcs)))
    return model, splits[0], splits[1]


def _id_csv(ids: np.ndarray) -> str:
    return "sample_id\n" + "".join(f"{int(i)}\n" for i in ids)


def cmd_prep(cfg: RunConfig, data: Input, force: bool = False) -> None:
    """Fit the preprocessing models on the training split and persist them."""
    v, dataset = cfg.values, data.dataset
    if v["prep.pca_k"] > dataset.features.shape[1]:
        raise ConfigError(
            f"pca_k = {v['prep.pca_k']} exceeds the {dataset.features.shape[1]} encoded "
            f"feature columns of {v['data.path']}"
        )
    model_path = _artifact_path(cfg, MODEL_FILE, force)
    train_path = _artifact_path(cfg, SPLIT_TRAIN_FILE, force)
    test_path = _artifact_path(cfg, SPLIT_TEST_FILE, force)
    train, test = prep_mod.stratified_split(dataset, v["prep.test_fraction"], v["prep.seed"])
    pca = prep_mod.pca_fit(train.features, v["prep.pca_k"])
    mm = prep_mod.minmax_fit(prep_mod.pca_transform(pca, train.features))
    model = {
        "prep": {
            "pca": prep_mod.pca_to_dict(pca),
            "minmax": prep_mod.minmax_to_dict(mm),
            "feature_names": dataset.feature_names,
        },
        "split": {
            "train_ids": [int(i) for i in train.sample_ids],
            "test_ids": [int(i) for i in test.sample_ids],
        },
        "config": cfg.record,
        "input_sha256": data.sha256,
    }
    _write_json(model_path, model)
    _write_text(train_path, _id_csv(train.sample_ids))
    _write_text(test_path, _id_csv(test.sample_ids))


def cmd_train(cfg: RunConfig, data: Input, force: bool = False) -> None:
    """Train the classifier on the persisted split and record the run."""
    model, train, _ = _load_stage(cfg, data)
    if "params" in model and not force:
        raise ConfigError(
            f"{cfg.out / MODEL_FILE} already holds trained parameters; pass --force to retrain"
        )
    loss_path = _artifact_path(cfg, LOSS_FILE, force)
    names = [f"pc{j}" for j in range(train.x.shape[1])]
    run = vqc_mod.train(prep_mod.Dataset(train.x, train.labels, names, train.ids), cfg.vqc, cfg.spsa)
    model["params"] = [float(v) for v in run.final_params]
    lines = ["iteration,loss"]
    lines.extend(f"{k},{float(v)!r}" for k, v in enumerate(run.loss_history))
    _write_text(loss_path, "\n".join(lines) + "\n")
    _write_json(cfg.out / MODEL_FILE, model)


def _label_name(value: int) -> str:
    return vqc_mod.Label(value).name


def cmd_eval(cfg: RunConfig, data: Input, force: bool = False) -> None:
    """Score the held-out split and write metrics, predictions, scatter."""
    model, train, test = _load_stage(cfg, data)
    if "params" not in model:
        raise DataError(
            f"{cfg.out / MODEL_FILE} has no trained parameters; run the train command first"
        )
    metrics_path = _artifact_path(cfg, METRICS_FILE, force)
    pred_path = _artifact_path(cfg, PREDICTIONS_FILE, force)
    scatter_path = _artifact_path(cfg, SCATTER_FILE, force)
    params = np.asarray(model["params"], dtype=np.float64)

    test_preds = vqc_mod.predict_batch(test.x, params, cfg.eval_vqc)
    y_pred = [int(p.label) for p in test_preds]
    p_ad = [p.p_ad for p in test_preds]
    report = metrics_mod.full_report(test.labels.tolist(), y_pred, p_ad)
    if report.ad.auroc is None:
        print(
            "warning: held-out split contains a single class; AUROC is undefined "
            "and reported as null",
            file=sys.stderr,
        )
    _write_json(metrics_path, metrics_mod.report_to_dict(report))

    pred_lines = ["sample_id,p_ad,predicted,true"]
    for sid, pred, true in zip(test.ids, test_preds, test.labels):
        pred_lines.append(
            f"{int(sid)},{float(pred.p_ad)!r},{pred.label.name},{_label_name(int(true))}"
        )
    _write_text(pred_path, "\n".join(pred_lines) + "\n")

    # 2-D scatter source: first two principal coordinates of every sample
    train_preds = vqc_mod.predict_batch(train.x, params, cfg.eval_vqc)
    scatter_lines = ["sample_id,split,pc1,pc2,true,predicted"]
    for split_name, part, preds in (("train", train, train_preds), ("test", test, test_preds)):
        for i, sid in enumerate(part.ids):
            pc1 = float(part.pcs[i, 0])
            pc2 = float(part.pcs[i, 1]) if part.pcs.shape[1] > 1 else 0.0
            scatter_lines.append(
                f"{int(sid)},{split_name},{pc1!r},{pc2!r},"
                f"{_label_name(int(part.labels[i]))},{preds[i].label.name}"
            )
    _write_text(scatter_path, "\n".join(scatter_lines) + "\n")


def cmd_kernel(cfg: RunConfig, data: Input, force: bool = False) -> None:
    """Export train x train and test x train fidelity kernel matrices."""
    _, train, test = _load_stage(cfg, data)
    train_path = _artifact_path(cfg, KERNEL_TRAIN_FILE, force)
    test_path = _artifact_path(cfg, KERNEL_TEST_FILE, force)
    train_ids = [int(i) for i in train.ids]
    test_ids = [int(i) for i in test.ids]
    fmap = cfg.vqc.feature_map
    k_train = kernel_matrix(train.x, train.x, fmap, row_ids=train_ids, col_ids=train_ids)
    k_test = kernel_matrix(test.x, train.x, fmap, row_ids=test_ids, col_ids=train_ids)
    _write_text(train_path, kernel_to_csv(k_train))
    _write_text(test_path, kernel_to_csv(k_test))


def cmd_report(cfg: RunConfig, data: Input, force: bool = False) -> None:
    """Full pipeline into one directory, plus an echo of the config."""
    cmd_prep(cfg, data, force)
    cmd_train(cfg, data, force)
    cmd_eval(cfg, data, force)
    cmd_kernel(cfg, data, force)
    _write_json(_artifact_path(cfg, CONFIG_ECHO_FILE, force), _nested(cfg.values))


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
        # the input is read once per invocation; report shares it among its verbs
        _COMMANDS[args.command](cfg, _load_input(cfg), force=args.force)
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
