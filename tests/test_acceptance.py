"""Acceptance suite: every release gate at its stated tolerance.

Each criterion prints one PASS line (visible with ``pytest -s``); a
failing assertion is the FAIL line. Criteria 8 and 10 share one
pipeline run via a module-scoped fixture.
"""

import json
import time

import numpy as np
import pytest

import oracles
from gates import hadamard, link, matrix, rotate
from vqclass.ansatz import AnsatzSpec, apply_ansatz, build_ansatz, init_params
from vqclass.cli import main
from vqclass.featmap import ENTANGLEMENTS, FeatureMapSpec, encode
from vqclass.metrics import auroc, scores_from_confusion
from vqclass.prep import pca_fit
from vqclass.qkernel import kernel_matrix
from vqclass.spsa import SpsaConfig, spsa_minimize
from vqclass.synth import make_blobs, make_handwriting_table, write_labeled_csv, write_table_csv
from vqclass.vqc import VqcConfig, predict_batch

ARTIFACTS = [
    "model.json", "split_train.csv", "split_test.csv", "loss_history.csv",
    "metrics.json", "predictions.csv", "scatter2d.csv",
    "kernel_train.csv", "kernel_test.csv",
]


def _report(criterion: str, elapsed: float, limit: float, detail: str) -> None:
    print(f"PASS {criterion}: {detail} [{elapsed:.2f}s < {limit:.0f}s]")
    assert elapsed < limit


def test_criterion_01_gate_fidelity():
    t0 = time.perf_counter()
    worst = np.max(np.abs(matrix(lambda s: hadamard(s, 0), 2) - oracles.H_MAT))
    for kind, mat in (("CY", oracles.CY_MAT), ("CZ", oracles.CZ_MAT)):
        worst = max(worst, np.max(np.abs(matrix(lambda s: link(s, 2, kind, 0, 1), 4) - mat)))
    rng = np.random.default_rng(2024)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=50):
        for gate, mat in (
            (lambda s: rotate(s, ry=theta), oracles.ry_mat(theta)),
            (lambda s: rotate(s, rz=theta), oracles.rz_mat(theta)),
        ):
            worst = max(worst, np.max(np.abs(matrix(gate, 2) - mat)))
        # P runs only inside the encoder, after H, at twice a feature in [0, 1]
        x = (theta + 2 * np.pi) / (4 * np.pi)
        expect = oracles.p_mat(2 * x) @ oracles.H_MAT[:, 0]
        worst = max(worst, np.max(np.abs(encode([[x]], FeatureMapSpec(1))[0] - expect)))
    assert worst < 1e-15
    _report("criterion 1 (gate fidelity)", time.perf_counter() - t0, 1.0,
            f"max entrywise error {worst:.2e} < 1e-15 over 50 angles")


def test_criterion_02_simulator_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        fmap = FeatureMapSpec(n, int(rng.integers(1, 4)), ENTANGLEMENTS[rng.integers(2)])
        spec = AnsatzSpec(n, int(rng.integers(1, 4)), ENTANGLEMENTS[rng.integers(2)])
        x = rng.uniform(0, 1, size=(1, n))
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        params[-n:] = 0.0  # the final RZs, which no readout sees, for kernel and oracle alike
        got = apply_ansatz(encode(x, fmap), spec, build_ansatz(spec, params, tuple(range(n)))).T
        expect = oracles.classifier_states(x, fmap, spec, params)
        worst = max(worst, float(np.max(np.abs(got - expect))))
    assert worst < 1e-12
    _report("criterion 2 (simulator vs dense oracle)", time.perf_counter() - t0, 10.0,
            f"max amplitude error {worst:.2e} < 1e-12 over 200 circuits")


def test_criterion_03_kernel_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    samples = rng.uniform(0, 1, size=(20, 5))
    states = encode(samples, FeatureMapSpec(5, 1, "full"))
    km = kernel_matrix(states, states)
    asym = float(np.max(np.abs(km - km.T)))
    diag = float(np.max(np.abs(np.diag(km) - 1.0)))
    min_eig = float(np.linalg.eigvalsh(km).min())
    assert asym < 1e-10
    assert diag < 1e-10
    assert min_eig >= -1e-8
    _report("criterion 3 (kernel Gram properties)", time.perf_counter() - t0, 5.0,
            f"asym {asym:.1e}, diag err {diag:.1e}, min eig {min_eig:.1e}")


def test_criterion_04_spsa_convergence():
    t0 = time.perf_counter()
    target = np.arange(1, 11, dtype=float)
    target /= np.linalg.norm(target)

    def objective(theta):
        return float(np.sum((theta - target) ** 2))

    params, _ = spsa_minimize(objective, np.zeros(10), SpsaConfig(maxiter=500, seed=0))
    final = objective(params)
    assert final < 1e-2

    theta0 = np.full(10, 1.0 / np.sqrt(10))
    passed = sum(
        float(np.sum(
            spsa_minimize(lambda t: float(np.sum(t**2)), theta0,
                          SpsaConfig(maxiter=200, seed=seed))[0] ** 2
        )) <= 0.1
        for seed in range(10)
    )
    assert passed >= 8
    _report("criterion 4 (SPSA convergence)", time.perf_counter() - t0, 2.0,
            f"quadratic final {final:.2e} < 1e-2; scale check {passed}/10 seeds")


def test_criterion_05_metrics_exactness():
    t0 = time.perf_counter()
    s = scores_from_confusion({"tp": 3, "tn": 3, "fp": 1, "fn": 1}, None)
    assert (s["accuracy"], s["sensitivity"], s["specificity"], s["f1"]) == (0.75,) * 4
    assert auroc([1, 0, 1, 0], [0.9, 0.8, 0.3, 0.1]) == 0.75
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.integers(0, 7, n) / 6.0  # coarse grid: plenty of ties
        assert auroc(y, scores) == oracles.auroc_bruteforce(y, scores)
    _report("criterion 5 (metrics exactness)", time.perf_counter() - t0, 2.0,
            "hand cases exact; AUROC == brute force on 100 tied instances")


def test_criterion_06_pca_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(6, 12))
        k = int(rng.integers(2, min(6, d + 1)))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        model = pca_fit(x, k)
        got = model["components"].T @ model["components"]
        eigvals, eigvecs = np.linalg.eigh(np.cov(x, rowvar=False, ddof=1))
        top = eigvecs[:, np.argsort(eigvals)[::-1][:k]]
        worst = max(worst, float(np.max(np.abs(got - top @ top.T))))
    assert worst < 1e-8
    _report("criterion 6 (PCA projector oracle)", time.perf_counter() - t0, 5.0,
            f"max projector deviation {worst:.2e} < 1e-8 over 50 matrices")


def test_criterion_07_shot_convergence():
    t0 = time.perf_counter()
    fmap = FeatureMapSpec(5, 1, "full")
    ansatz = AnsatzSpec(5, reps=2)
    x = [0.15, 0.4, 0.65, 0.9, 0.3]
    params = init_params(ansatz, 7)
    exact_cfg = VqcConfig(feature_map=fmap, ansatz=ansatz, measured_qubits=(0, 1))
    p_exact = predict_batch([x], params, exact_cfg)[0]
    details = []
    for shots in (256, 1024, 4096):
        diffs = []
        for seed in range(20):
            cfg = VqcConfig(
                feature_map=fmap, ansatz=ansatz, measured_qubits=(0, 1),
                shots=shots, seed=seed,
            )
            diffs.append(abs(predict_batch([x], params, cfg)[0] - p_exact))
        mean_diff = float(np.mean(diffs))
        assert mean_diff <= 5.0 / np.sqrt(shots), (shots, mean_diff)
        details.append(f"{shots}: {mean_diff:.4f} <= {5.0 / np.sqrt(shots):.4f}")
    _report("criterion 7 (shot convergence)", time.perf_counter() - t0, 10.0,
            "; ".join(details))


BLOB_CONFIG = {
    "data": {"label_column": "class", "positive_label": "pos"},
    "prep": {"pca_k": 5, "test_fraction": 0.25, "seed": 0},
    "feature_map": {"reps": 1, "entanglement": "full"},
    "ansatz": {"reps": 2, "entanglement": "full"},
    "vqc": {"measured_qubits": [0, 1], "shots": None, "seed": 0},
    "spsa": {"maxiter": 300, "a": 1.0, "c": 0.2, "seed": 0},
}


@pytest.fixture(scope="module")
def blob_runs(tmp_path_factory):
    """Criterion 8's pipeline, run twice with identical config."""
    tmp = tmp_path_factory.mktemp("blobs")
    features, labels = make_blobs(40, 5, separation=3.0, seed=1)
    data_path = tmp / "blobs.csv"
    write_labeled_csv(str(data_path), features, labels)
    elapsed = {}
    for name in ("run_a", "run_b"):
        cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BLOB_CONFIG.items()}
        cfg["data"]["path"] = str(data_path)
        cfg["output_dir"] = str(tmp / name)
        cfg_path = tmp / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        t0 = time.perf_counter()
        assert main(["report", "--config", str(cfg_path)]) == 0
        elapsed[name] = time.perf_counter() - t0
    return tmp, elapsed


def test_criterion_08_end_to_end_synthetic(blob_runs):
    tmp, elapsed = blob_runs
    metrics = json.loads((tmp / "run_a" / "metrics.json").read_text())
    accuracy = metrics["ad_cohort"]["accuracy"]
    assert accuracy >= 0.9
    history_lines = (tmp / "run_a" / "loss_history.csv").read_text().splitlines()[1:]
    history = np.array([float(line.split(",")[1]) for line in history_lines])
    assert history[-50:].mean() < history[:50].mean()
    _report("criterion 8 (end-to-end synthetic blobs)", elapsed["run_a"], 300.0,
            f"held-out accuracy {accuracy:.2f} >= 0.9 (EXACT, 300 iterations), "
            "loss trend downward")


def test_criterion_10_determinism(blob_runs):
    tmp, elapsed = blob_runs
    t0 = time.perf_counter()
    for name in ARTIFACTS:
        a = (tmp / "run_a" / name).read_bytes()
        b = (tmp / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report("criterion 10 (byte-identical rerun)",
            elapsed["run_b"] + time.perf_counter() - t0, 300.0,
            f"all {len(ARTIFACTS)} artifacts byte-identical across reruns")


@pytest.mark.slow
def test_criterion_09_soft_benchmark(tmp_path):
    t0 = time.perf_counter()
    columns, rows = make_handwriting_table(174)
    data_path = tmp_path / "handwriting.csv"
    write_table_csv(str(data_path), columns, rows)
    cfg = {
        "data": {"path": str(data_path), "label_column": "class", "positive_label": "P"},
        "prep": {"pca_k": 5, "test_fraction": 0.25, "seed": 0},
        "feature_map": {"reps": 1, "entanglement": "full"},
        "ansatz": {"reps": 2, "entanglement": "full"},
        "vqc": {"measured_qubits": [0, 1], "shots": None, "seed": 0},
        "spsa": {"maxiter": 500, "a": 1.0, "c": 0.2, "seed": 0},
        "output_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["report", "--config", str(cfg_path)]) == 0

    history_lines = (tmp_path / "run" / "loss_history.csv").read_text().splitlines()
    assert len(history_lines) == 501  # header + 500 iterations
    history = np.array([float(line.split(",")[1]) for line in history_lines[1:]])
    assert history[-50:].mean() < history[:50].mean()

    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    accuracy = metrics["ad_cohort"]["accuracy"]
    in_range = 0.60 <= accuracy <= 0.90
    status = "inside" if in_range else "OUTSIDE"
    # the accuracy window is a soft benchmark, reported rather than gated
    _report(
        "criterion 9 (174-row soft benchmark)", time.perf_counter() - t0, 1800.0,
        f"500 iterations, loss {history[:50].mean():.3f} -> {history[-50:].mean():.3f}; "
        f"held-out accuracy {accuracy:.3f} {status} soft range [0.60, 0.90]",
    )
