"""Command-line pipeline: prep, train, eval, kernel, and report verbs.

Every run is driven by a single JSON config with all seeds explicit, so
repeating a command with the same config and inputs yields byte-identical
artifacts. Each verb's files, named in ARTIFACTS, are streamed line by
line and write-once per output directory, all checked before the verb
writes any; pass --force to overwrite. The check also covers the files
made from them (UPSTREAM), which --force removes first, so no directory
mixes two runs. ``prep`` records the resolved config and the sha256 of
the input in model.json, and train, eval and kernel refuse to run when
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
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import prep as prep_mod
from . import vqc as vqc_mod
from .ansatz import AnsatzSpec
from .errors import ConfigError, DataError, VqclassError, shown
from .featmap import FeatureMapSpec, encode
from .qkernel import kernel_matrix, kernel_to_csv, row_blocks
from .spsa import SpsaConfig

MODEL_FILE = "model.json"
# Each verb's files, named once. train also rewrites MODEL_FILE, guarded by its params.
ARTIFACTS = {
    "prep": (MODEL_FILE, "split_train.csv", "split_test.csv"),
    "train": ("loss_history.csv",),
    "eval": ("metrics.json", "predictions.csv", "scatter2d.csv"),
    "kernel": ("kernel_train.csv", "kernel_test.csv"),
    "report": ("config_echo.json",),
}
# The verbs whose files each verb's files are made from, directly or not.
UPSTREAM = {"train": ("prep",), "eval": ("prep", "train"), "kernel": ("prep",),
            "report": ("prep", "train", "eval", "kernel")}


def _float(value, name: str) -> float:
    """A finite JSON number; bool, NaN, Infinity and integers beyond the
    float range raise ConfigError."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{name} must be a finite number, got {shown(value)}")
    return float(value)


def _int(value, name: str) -> int:
    """A JSON integer; bool and non-integral or non-finite numbers raise ConfigError."""
    if not _float(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def _seed(value, name: str) -> int:
    """A non-negative integer, as numpy's seeding needs."""
    if _int(value, name) < 0:
        raise ConfigError(f"{name} must be >= 0, got {shown(value)}")
    return int(value)


def _fraction(value, name: str) -> float:
    if not 0.0 < _float(value, name) < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), got {shown(value)}")
    return float(value)


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {shown(value)}")
    return value


def _int_list(value, name: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {shown(value)}")
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
    # ValueError: bytes that are not UTF-8, or an integer past Python's digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
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

    k, section = v["prep.pca_k"], _nested(v)
    vqc = _build("vqc", vqc_mod.VqcConfig,
                 feature_map=_build("feature_map", FeatureMapSpec, k, **section["feature_map"]),
                 ansatz=_build("ansatz", AnsatzSpec, k, **section["ansatz"]),
                 **{key: x for key, x in section["vqc"].items() if key != "eval_shots"})
    eval_vqc = _build("vqc.eval_shots", dataclasses.replace, vqc, shots=v["vqc.eval_shots"])
    return RunConfig(v, vqc, eval_vqc, _build("spsa", SpsaConfig, **section["spsa"]))


def _build(key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ConfigError prefixed with the config
    key at fault: ``key``, or prep.pca_k for the qubit count."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        key = "prep.pca_k" if str(exc).startswith("n_qubits") else key
        raise ConfigError(f"{key}: {exc}") from None


def _artifact_paths(cfg: RunConfig, verb: str, force: bool) -> list[Path]:
    """The paths of ``verb``'s artifacts, after creating output_dir. Any of
    them, or of a downstream verb's, that exists raises ConfigError unless
    ``force``; with ``force`` the downstream ones are then removed."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output_dir {cfg.out} is not a directory") from None
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.out}: {exc}") from None
    paths = [cfg.out / name for name in ARTIFACTS[verb]]
    stale = [cfg.out / name for later, upstream in UPSTREAM.items() if verb in upstream
             for name in ARTIFACTS[later]]
    for path in paths + stale:
        if path.exists() and not force:
            action = "overwrite existing" if path in paths else f"remove {verb}'s downstream"
            raise ConfigError(f"refusing to {action} artifact {path}; pass --force")
    for path in stale:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot remove stale artifact {path}: {exc}") from None
    return paths


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line, newline-terminated, as it arrives to a temp file beside
    ``path``, then rename that into place: a failed write leaves no artifact."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write artifact {path}: {exc}") from None
        raise


class _Split(NamedTuple):
    ids: np.ndarray  # row indices into the input table
    labels: np.ndarray
    pcs: np.ndarray  # principal coordinates
    x: np.ndarray  # pcs min-max scaled into [0, 1]: the encoder's input


def _floats(path: Path, name: str, value, shape: tuple, verb: str) -> np.ndarray:
    """model.json's ``name`` as a float64 array of ``shape``: nested lists of numbers
    _float accepts, else a DataError naming the file, the key and the verb to rerun."""
    try:
        leaves = [value]
        for size in shape:
            if not all(isinstance(row, list) and len(row) == size for row in leaves):
                raise ConfigError(f"must hold {shape} finite numbers")
            leaves = [x for row in leaves for x in row]
        return np.array([_float(x, "each entry") for x in leaves]).reshape(shape)
    except ConfigError as exc:
        raise DataError(f"{path} {name}: {str(exc)[:120]}; rerun {verb} --force") from None


def _load_stage(cfg: RunConfig, data: prep_mod.Table) -> tuple[dict, _Split, _Split]:
    """The load stage of train, eval and kernel: model.json, checked against
    the config and input it was prepared from and for shapes, finite values
    and non-empty, disjoint, unique row ids, and its train and test splits
    with the stored PCA and min-max applied."""
    path = cfg.out / MODEL_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run the prep command first")
    n, d = data.features.shape
    k = cfg.values["prep.pca_k"]
    # the fitted arrays under model.json's "prep", and the shape each must have
    shapes = {"pca": {"mean": (d,), "components": (k, d), "explained_variance": (k,)},
              "minmax": {"min": (k,), "max": (k,)}}
    try:
        model = json.loads(path.read_text(encoding="utf-8"))
        stored, digest = dict(model["config"]), model["input_sha256"]
        raw = {part: {key: model["prep"][part][key] for key in keys}
               for part, keys in shapes.items()}
        ids = [model["split"][key] for key in ("train_ids", "test_ids")]
    except (OSError, RecursionError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path} is not a model file written by prep ({type(exc).__name__}: "
                        f"{str(exc)[:120]}); rerun prep --force") from None  # repr holds the input
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
    fitted = {part: {key: _floats(path, f"prep.{part}.{key}", raw[part][key], shape, "prep")
                     for key, shape in keys.items()} for part, keys in shapes.items()}
    if not all(isinstance(rows, list) and rows and all(type(i) is int and 0 <= i < n for i in rows)
               for rows in ids):
        raise DataError(f"{path} split ids must be non-empty lists of integers in [0, {n}); "
                        "rerun prep --force")
    if len(set(ids[0]) | set(ids[1])) != len(ids[0]) + len(ids[1]):
        raise DataError(f"{path} has a split id twice, within or across train and test; "
                        "rerun prep --force")
    splits = []
    for rows in map(np.array, ids):
        pcs = prep_mod.pca_transform(fitted["pca"], data.features[rows])
        splits.append(_Split(rows, data.labels[rows], pcs,
                             prep_mod.minmax_transform(fitted["minmax"], pcs)))
    return model, splits[0], splits[1]


def cmd_prep(cfg: RunConfig, data: prep_mod.Table, force: bool = False) -> None:
    """Fit the preprocessing models on the training split and persist them."""
    v = cfg.values
    if v["prep.pca_k"] > data.features.shape[1]:
        raise ConfigError(
            f"pca_k = {v['prep.pca_k']} exceeds the {data.features.shape[1]} encoded "
            f"feature columns of {v['data.path']}"
        )
    model_path, *split_paths = _artifact_paths(cfg, "prep", force)
    train, test = prep_mod.stratified_split(data.labels, v["prep.test_fraction"], v["prep.seed"])
    x_train = data.features[train]
    pca = prep_mod.pca_fit(x_train, v["prep.pca_k"])
    mm = prep_mod.minmax_fit(prep_mod.pca_transform(pca, x_train))
    model = {
        "prep": {
            "pca": {key: a.tolist() for key, a in pca.items()},
            "minmax": {key: a.tolist() for key, a in mm.items()},
            "feature_names": data.feature_names,
        },
        "split": {"train_ids": train.tolist(), "test_ids": test.tolist()},
        "config": cfg.record,
        "input_sha256": data.sha256,
    }
    _write_lines(model_path, [json.dumps(model, indent=2)])
    for path, rows in zip(split_paths, (train, test)):
        _write_lines(path, chain(["sample_id"], map(str, rows.tolist())))


def cmd_train(cfg: RunConfig, data: prep_mod.Table, force: bool = False) -> None:
    """Train the classifier on the persisted split and record the run."""
    model, train, _ = _load_stage(cfg, data)
    if "params" in model and not force:
        raise ConfigError(
            f"{cfg.out / MODEL_FILE} already holds trained parameters; pass --force to retrain"
        )
    (loss_path,) = _artifact_paths(cfg, "train", force)
    params, history = vqc_mod.train(train.x, train.labels, cfg.vqc, cfg.spsa)
    model["params"] = [float(v) for v in params]
    _write_lines(loss_path, chain(["iteration,loss"], (
        f"{k},{float(v)!r}" for k, v in enumerate(history))))
    _write_lines(cfg.out / MODEL_FILE, [json.dumps(model, indent=2)])


def _label(value) -> str:
    """The class name of a 0/1 label."""
    return vqc_mod.Label(int(value)).name


def cmd_eval(cfg: RunConfig, data: prep_mod.Table, force: bool = False) -> None:
    """Score the held-out split and write metrics, predictions, scatter."""
    model, train, test = _load_stage(cfg, data)
    if "params" not in model:
        raise DataError(
            f"{cfg.out / MODEL_FILE} has no trained parameters; run the train command first"
        )
    params = _floats(cfg.out / MODEL_FILE, "params", model["params"],
                     (cfg.vqc.ansatz.n_params,), "train")
    metrics_path, pred_path, scatter_path = _artifact_paths(cfg, "eval", force)

    test_p = vqc_mod.predict_batch(test.x, params, cfg.eval_vqc)
    test_pred = vqc_mod.classify(test_p)
    report = metrics_mod.full_report(test.labels.tolist(), test_pred.tolist(), test_p.tolist())
    if report["ad_cohort"]["auroc"] is None:
        print(
            "warning: held-out split contains a single class; AUROC is undefined "
            "and reported as null",
            file=sys.stderr,
        )
    _write_lines(metrics_path, [json.dumps(report, indent=2)])
    _write_lines(pred_path, chain(["sample_id,p_ad,predicted,true"], (
        f"{int(sid)},{p!r},{_label(pred)},{_label(true)}"
        for sid, p, pred, true in zip(test.ids, test_p.tolist(), test_pred, test.labels))))

    # 2-D scatter source: first two principal coordinates of every sample (pc2 0.0 if k = 1)
    train_pred = vqc_mod.classify(vqc_mod.predict_batch(train.x, params, cfg.eval_vqc))
    parts = (("train", train, train_pred), ("test", test, test_pred))
    _write_lines(scatter_path, chain(["sample_id,split,pc1,pc2,true,predicted"], (
        f"{int(sid)},{name},{pc[0]!r},{[*pc, 0.0][1]!r},{_label(true)},{_label(pred)}"
        for name, part, preds in parts
        for sid, pc, true, pred in zip(part.ids, part.pcs.tolist(), part.labels, preds))))


def cmd_kernel(cfg: RunConfig, data: prep_mod.Table, force: bool = False) -> None:
    """Export train x train and test x train fidelity kernel matrices, one
    row block at a time: only the training states are held whole, each test
    block is encoded when its rows are written, and each block's fidelities
    are formatted and written before the next block's are computed."""
    _, train, test = _load_stage(cfg, data)
    train_path, test_path = _artifact_paths(cfg, "kernel", force)
    spec = cfg.vqc.feature_map
    train_states = encode(train.x, spec)
    train_ids = train.ids.tolist()
    for path, split in ((train_path, train), (test_path, test)):
        # encode gives a row the same state in any batch, so a test block is encoded alone
        states = (train_states[rows] if split is train else encode(split.x[rows], spec)
                  for rows in row_blocks(len(split.x), spec.n_qubits, len(train_states)))
        blocks = (kernel_matrix(block, train_states) for block in states)
        _write_lines(path, kernel_to_csv(blocks, split.ids.tolist(), train_ids))


def cmd_report(cfg: RunConfig, data: prep_mod.Table, force: bool = False) -> None:
    """Full pipeline into one directory, plus an echo of the config."""
    (echo_path,) = _artifact_paths(cfg, "report", force)
    cmd_prep(cfg, data, force)  # checks every verb's files before it writes
    cmd_train(cfg, data, force)
    cmd_eval(cfg, data, force)
    cmd_kernel(cfg, data, force)
    _write_lines(echo_path, [json.dumps(_nested(cfg.values), indent=2)])


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
        v = cfg.values
        # the input is read once per invocation; report shares it among its verbs
        data = prep_mod.load_csv(v["data.path"], v["data.label_column"], v["data.positive_label"])
        _COMMANDS[args.command](cfg, data, force=args.force)
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
