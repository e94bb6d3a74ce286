"""The committed runs on other kernels: ``report`` on both ``runs/`` configs, rerun in
children under every OpenBLAS core this CPU runs and under Haswell with numpy's AVX-512
dispatch off, must write the scores and the split byte for byte as committed, and every
float of the model, the loss history and the predictions within 1e-10 * max(1,
|committed|) of the committed one. ``tests/test_golden.py`` holds the same runs to every
byte on the kernel and dispatch they were made on."""

import json
import os
import platform
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import blas

TESTS = Path(__file__).resolve().parent
RUNS = {"demo": "blobs.csv", "benchmark": "handwriting.csv"}
EXACT = ("metrics.json", "split_train.csv", "split_test.csv")
CLOSE = ("model.json", "loss_history.csv", "predictions.csv")
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
REPORT = ("import sys\nfrom vqclass.cli import main\n"
          "sys.exit(max(main(['report', '--config', path]) for path in sys.argv[1:]))")


def kernels() -> list[tuple[str, dict]]:
    """(name, environment) of each kernel and dispatch this CPU can run."""
    flags = blas.cpu_flags()
    runnable = [(core, {"OPENBLAS_CORETYPE": core}) for core, flag in blas.CORE_FLAGS.items()
                if flag is None or flag in flags]
    if "avx2" in flags and "X86_V4" in blas.simd_dispatch().split():
        runnable.append(("Haswell with X86_V4 off", {
            "OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}))
    return runnable


def report(out: Path, env: dict) -> subprocess.CompletedProcess:
    """Both committed runs' ``report``, into ``out``/<run>, in one child on one BLAS
    thread with ``env`` set."""
    out.mkdir()
    paths = []
    for run, data in RUNS.items():
        config = json.loads((TESTS.parent / "runs" / run / "config.json").read_text("utf-8"))
        config["data"]["path"] = str(TESTS.parent / "runs" / run / data)
        config["output_dir"] = str(out / run)
        paths.append(out / f"{run}.json")
        paths[-1].write_text(json.dumps(config), encoding="utf-8")
    search = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(search),
           **env}
    return subprocess.run([sys.executable, "-c", REPORT, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=300)


def assert_floats_close(got: str, want: str, where: str) -> None:
    """``got`` is ``want`` but for its numbers, each within 1e-10 * max(1, |want|)."""
    assert NUMBER.split(got) == NUMBER.split(want), f"{where}: the text between numbers differs"
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):  # digests hold "348e627"
        assert a == b or abs(float(a) - float(b)) <= 1e-10 * max(1.0, abs(float(b))), (
            f"{where}: {a} against {b}")


def test_committed_runs_hold_on_every_kernel(tmp_path):
    if not blas.is_openblas() or platform.machine() != "x86_64":
        pytest.skip("needs OpenBLAS on x86-64")
    runnable = kernels()
    with ThreadPoolExecutor(2) as pool:  # each child is one process on one BLAS thread
        children = list(pool.map(lambda i: report(tmp_path / str(i), runnable[i][1]),
                                 range(len(runnable))))
    for i, ((name, _), child) in enumerate(zip(runnable, children)):
        assert child.returncode == 0, f"{name}: {child.stderr}"
        for run in RUNS:
            made, committed = tmp_path / str(i) / run, TESTS.parent / "runs" / run / "artifacts"
            for file in EXACT:
                assert (made / file).read_bytes() == (committed / file).read_bytes(), (
                    f"{run}/{file} differs under {name}")
            for file in CLOSE:
                assert_floats_close((made / file).read_text("utf-8"),
                                    (committed / file).read_text("utf-8"),
                                    f"{run}/{file} under {name}")
