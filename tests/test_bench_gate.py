"""The benchmark's correctness gate passes on the committed runs.

``bench/checks.py`` rebuilds spot p_ad values and kernel entries with dense
gate matrices, sharing no code with the package, and checks the split,
the loss history and the reference metrics. Running it over ``runs/`` here
catches regenerated artifacts that the benchmark would reject. The names the bench
imports from the package, and those its tracer wraps, must exist.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from checks import check_run  # noqa: E402
from tracing import PATCHES  # noqa: E402

# the package functions the bench's tracer wraps today; a refactor that
# renames or moves one silently drops its span from every traced run
LIVE_TRACE_TARGETS = [
    ("vqclass.cli", name)
    for name in ("cmd_prep", "cmd_train", "cmd_eval", "cmd_kernel", "cmd_report",
                 "kernel_matrix", "kernel_to_csv")
] + [
    ("vqclass.vqc", name)
    for name in ("encode", "build_ansatz", "apply_ansatz", "spsa_minimize", "train",
                 "predict_batch")
]


@pytest.mark.parametrize("run, data, expect", [
    ("demo", "blobs.csv", None),
    ("benchmark", "handwriting.csv", {"accuracy": 0.75, "auroc": 0.822}),
])
def test_committed_run_passes_gate(run, data, expect):
    out = ROOT / "runs" / run / "artifacts"
    # the echo, not config.json, since it has every key (eval_shots) filled in
    cfg = json.loads((out / "config_echo.json").read_text(encoding="utf-8"))
    assert check_run(out, ("report",), cfg, ROOT / "runs" / run / data, expect) == []


@pytest.mark.parametrize("module, name", LIVE_TRACE_TARGETS)
def test_trace_target_resolves(module, name):
    assert (module, name) in [(m, a) for m, a, _ in PATCHES]
    assert callable(getattr(importlib.import_module(module), name, None))


def test_bench_package_imports_resolve():
    # bench/workloads.py imports vqclass.synth's generators inside make_inputs, where no
    # import-time error shows: a moved or renamed one would break every workload unseen
    resolved = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vqclass":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    assert hasattr(module, alias.name), f"bench/{path.name} imports {name}"
                    resolved.append(name)
    assert "vqclass.synth.make_handwriting_table" in resolved
