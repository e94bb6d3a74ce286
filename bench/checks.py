"""Correctness gate for one benchmark run's artifacts.

``check_run`` returns a list of problems; an empty list means the run
passed. The p_ad and kernel spot checks rebuild states with dense
2^n x 2^n gate matrices from the CSV and ``model.json`` alone, so they
share no code with ``vqclass.statevec`` or ``vqclass.prep``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = {
    "prep": ("model.json", "split_train.csv", "split_test.csv"),
    "kernel": ("kernel_train.csv", "kernel_test.csv"),
    "report": ("model.json", "split_train.csv", "split_test.csv", "loss_history.csv",
               "metrics.json", "predictions.csv", "scatter2d.csv", "kernel_train.csv",
               "kernel_test.csv", "config_echo.json"),
}
DENSE_MAX_QUBITS = 8
DENSE_TOL = 1e-9


def check_run(out: Path, verbs: tuple[str, ...], cfg: dict, data_path: Path,
              expect: dict | None = None) -> list[str]:
    """Every check that applies to the artifacts ``verbs`` leave in ``out``."""
    missing = [name for verb in verbs for name in ARTIFACTS[verb] if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {sorted(set(missing))}"]
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    problems = _check_split(out, model, data_path)
    n = cfg["prep"]["pca_k"]
    dense = n <= DENSE_MAX_QUBITS
    features = _normalized_features(data_path, model) if dense else None
    if (out / "loss_history.csv").is_file():
        problems += _check_loss(out, cfg["spsa"]["maxiter"])
    if (out / "predictions.csv").is_file():
        problems += _check_predictions(out, cfg["vqc"]["eval_shots"])
        if dense and cfg["vqc"]["eval_shots"] is None:
            problems += _check_p_ad_dense(out, model, cfg, features)
    if (out / "kernel_train.csv").is_file():
        problems += _check_kernel(out, model, cfg, features)
    if expect and (out / "metrics.json").is_file():
        ad = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["ad_cohort"]
        if ad["accuracy"] != expect["accuracy"] or round(ad["auroc"], 3) != expect["auroc"]:
            problems.append(f"reference metrics {expect} not reproduced: accuracy "
                            f"{ad['accuracy']}, auroc {ad['auroc']}")
    return problems


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _ids(path: Path) -> list[int]:
    return [int(row[0]) for row in _read_rows(path)[1:]]


def _check_split(out: Path, model: dict, data_path: Path) -> list[str]:
    n_rows = len(_read_rows(data_path)) - 1
    train, test = _ids(out / "split_train.csv"), _ids(out / "split_test.csv")
    if train != model["split"]["train_ids"] or test != model["split"]["test_ids"]:
        return ["split CSVs disagree with model.json"]
    if sorted(train + test) != list(range(n_rows)):
        return [f"train and test ids do not partition the {n_rows} input rows"]
    return []


def _check_loss(out: Path, maxiter: int) -> list[str]:
    rows = _read_rows(out / "loss_history.csv")
    losses = [float(r[1]) for r in rows[1:]]
    if rows[0] != ["iteration", "loss"] or len(losses) != maxiter:
        return [f"loss_history.csv has {len(losses)} rows, expected {maxiter}"]
    if not all(math.isfinite(v) for v in losses):
        return ["loss_history.csv holds a non-finite loss"]
    return []


def _check_predictions(out: Path, eval_shots: int | None) -> list[str]:
    problems = []
    counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for sid, p_text, predicted, true in _read_rows(out / "predictions.csv")[1:]:
        p = float(p_text)
        if not 0.0 <= p <= 1.0:
            problems.append(f"sample {sid}: p_ad {p} outside [0, 1]")
        if predicted != ("AD" if p >= 0.5 else "NON_AD"):
            problems.append(f"sample {sid}: label {predicted} disagrees with p_ad {p}")
        if eval_shots is not None and abs(p * eval_shots - round(p * eval_shots)) > 1e-9:
            problems.append(f"sample {sid}: p_ad {p} is not a multiple of 1/{eval_shots}")
        key = ("t" if predicted == true else "f") + ("p" if predicted == "AD" else "n")
        counts[key] += 1
    reported = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    if reported["ad_cohort"]["confusion"] != counts:
        problems.append(f"metrics.json confusion {reported['ad_cohort']['confusion']} "
                        f"!= recount {counts}")
    return problems


def _read_kernel(path: Path) -> tuple[list[int], list[int], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        cols = [int(c) for c in fh.readline().rstrip("\n").split(",")[1:]]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return [int(i) for i in table[:, 0]], cols, table[:, 1:]


def _check_kernel(out: Path, model: dict, cfg: dict, features) -> list[str]:
    train_ids, test_ids = model["split"]["train_ids"], model["split"]["test_ids"]
    rows, cols, k = _read_kernel(out / "kernel_train.csv")
    if rows != train_ids or cols != train_ids:
        return ["kernel_train.csv ids are not the training split"]
    problems = []
    if np.max(np.abs(k - k.T)) > 1e-12:
        problems.append("kernel_train.csv is not symmetric")
    if np.max(np.abs(np.diag(k) - 1.0)) > 1e-12:
        problems.append("kernel_train.csv diagonal is not 1")
    if k.min() < 0.0 or k.max() > 1.0:
        problems.append("kernel_train.csv has entries outside [0, 1]")
    min_eig = float(np.linalg.eigvalsh(0.5 * (k + k.T)).min())
    if min_eig < -1e-9:
        problems.append(f"kernel_train.csv smallest eigenvalue {min_eig} < -1e-9")
    t_rows, t_cols, kt = _read_kernel(out / "kernel_test.csv")
    if t_rows != test_ids or t_cols != train_ids:
        problems.append("kernel_test.csv ids are not test x train")
    elif kt.min() < 0.0 or kt.max() > 1.0:
        problems.append("kernel_test.csv has entries outside [0, 1]")
    if features is None or problems:
        return problems
    fm = cfg["feature_map"]
    n = cfg["prep"]["pca_k"]
    encode = functools.lru_cache(maxsize=None)(
        lambda sid: _encode_dense(features[sid], n, fm["reps"], fm["entanglement"])
    )
    for matrix, row_ids, col_ids, name in ((k, train_ids, train_ids, "kernel_train"),
                                           (kt, test_ids, train_ids, "kernel_test")):
        for i in _spots(len(row_ids)):
            for j in _spots(len(col_ids)):
                ref = float(abs(np.vdot(encode(col_ids[j]), encode(row_ids[i]))) ** 2)
                if abs(matrix[i, j] - ref) > DENSE_TOL:
                    problems.append(f"{name}.csv [{row_ids[i]}, {col_ids[j]}] = "
                                    f"{float(matrix[i, j])!r}, dense reference {ref!r}")
    return problems


def _check_p_ad_dense(out: Path, model: dict, cfg: dict, features) -> list[str]:
    n = cfg["prep"]["pca_k"]
    fm, ans = cfg["feature_map"], cfg["ansatz"]
    params = model["params"]
    preds = _read_rows(out / "predictions.csv")[1:]
    problems = []
    for i in _spots(len(preds)):
        sid, p_text = int(preds[i][0]), preds[i][1]
        state = _encode_dense(features[sid], n, fm["reps"], fm["entanglement"])
        state = _ansatz_dense(state, n, params, ans["reps"], ans["entanglement"])
        ref = _even_parity_mass(state, n, cfg["vqc"]["measured_qubits"])
        if abs(float(p_text) - ref) > DENSE_TOL:
            problems.append(f"sample {sid}: p_ad {p_text}, dense reference {ref!r}")
    return problems


def _spots(size: int) -> list[int]:
    """First and last position."""
    return sorted({0, size - 1})


def _normalized_features(data_path: Path, model: dict) -> np.ndarray:
    """Every input row through one-hot, PCA and min-max as model.json records them."""
    header, *rows = _read_rows(data_path)
    columns = {name: [r[j] for r in rows] for j, name in enumerate(header)}
    raw = []
    for name in model["prep"]["feature_names"]:
        if name in columns:
            raw.append([float(v) for v in columns[name]])
        else:
            column, category = name.split("=", 1)
            raw.append([1.0 if v == category else 0.0 for v in columns[column]])
    x = np.array(raw, dtype=np.float64).T
    pca, mm = model["prep"]["pca"], model["prep"]["minmax"]
    z = (x - np.array(pca["mean"])) @ np.array(pca["components"]).T
    lo, hi = np.array(mm["min"]), np.array(mm["max"])
    span = hi - lo
    scaled = np.where(span > 0.0, (z - lo) / np.where(span > 0.0, span, 1.0), 0.0)
    return np.clip(scaled, 0.0, 1.0)


I2 = np.eye(2, dtype=np.complex128)
P0 = np.diag([1.0, 0.0]).astype(np.complex128)
P1 = np.diag([0.0, 1.0]).astype(np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.diag([1.0, -1.0]).astype(np.complex128)


def _phase(lam: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * lam)])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _embed(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Dense operator with the given 2x2 factors; qubit 0 is the leftmost factor."""
    return functools.reduce(np.kron, [factors.get(q, I2) for q in range(n)])


def _controlled(u: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    return _embed({control: P0}, n) + _embed({control: P1, target: u}, n)


def _pairs(n: int, entanglement: str) -> list[tuple[int, int]]:
    if entanglement == "linear":
        return [(q, q + 1) for q in range(n - 1)]
    return list(itertools.combinations(range(n), 2))


def _encode_dense(x: np.ndarray, n: int, reps: int, entanglement: str) -> np.ndarray:
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for _ in range(reps):
        for q in range(n):
            state = _embed({q: H}, n) @ state
        for q in range(n):
            state = _embed({q: _phase(2.0 * x[q])}, n) @ state
        for j, k in _pairs(n, entanglement):
            cx = _controlled(X, j, k, n)
            pair_phase = _embed({k: _phase(2.0 * (math.pi - x[j]) * (math.pi - x[k]))}, n)
            state = cx @ (pair_phase @ (cx @ state))
    return state


def _ansatz_dense(state: np.ndarray, n: int, params: list[float], reps: int,
                  entanglement: str) -> np.ndarray:
    slot = iter(params)
    for layer in range(reps + 1):
        for rotation in (_ry, _rz):
            for q in range(n):
                state = _embed({q: rotation(next(slot))}, n) @ state
        if layer < reps:
            for i, (c, t) in enumerate(_pairs(n, entanglement)):
                state = _controlled(Y if i % 2 == 0 else Z, c, t, n) @ state
    return state


def _even_parity_mass(state: np.ndarray, n: int, measured: list[int]) -> float:
    idx = np.arange(state.size)
    parity = np.zeros_like(idx)
    for q in measured:
        parity ^= (idx >> (n - 1 - q)) & 1
    return float(np.sum(np.abs(state[parity == 0]) ** 2))
