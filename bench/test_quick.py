"""Smoke test of the benchmark at tiny sizes: result schema and correctness
gate only, never timings.

    python3 -m pytest -q bench/test_quick.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import check_run  # noqa: E402
from run import Bench  # noqa: E402
from workloads import WORKLOADS, quick  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "all", "--quick",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_schema(trace, section):
    proc = _bench("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    expected = {f"{w}.{m}" for w in WORKLOADS for m in units}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    # exact counts at quick size: 40 rows (30 train, 10 test), 5 SPSA iterations
    metric = {k: v["value"] for k, v in result["metrics"].items()}
    for w in ("hw174_n5_exact", "hw174_n5_shots", "hw174_n12_exact"):
        assert metric[f"{w}.featmap.encode.calls"] == 30 + 40 + 30 + 40
        assert metric[f"{w}.vqc.loss_eval.calls"] == 3 * 5
        assert metric[f"{w}.prep.load_csv.calls"] == 4
    assert metric["hw174_n5_shots.statevec.sample_counts.calls"] == 15 * 30 + 40
    assert metric["kernel_n8_1200.prep.load_csv.calls"] == 2
    assert metric["kernel_n8_1200.statevec.apply_ops.calls"] == 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    from tracing import LAYER_METRICS

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]


@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("gate")
    b = Bench(quick(WORKLOADS["hw174_n5_exact"]), 1, workdir, expect_reference=False)
    assert b.run(b.w.verbs).problems == []
    return b


def _corrupt(b: Bench, name: str, edit) -> list[str]:
    out = b.workdir / "out"
    backup = out.with_name("backup")
    shutil.copytree(out, backup)
    try:
        path = out / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        return check_run(out, b.w.verbs, b.cfg, b.workdir / "data.csv")
    finally:
        shutil.rmtree(out)
        backup.rename(out)


def _nudge_first_p_ad(text: str) -> str:
    header, first, *rest = text.splitlines()
    sid, p, label, true = first.split(",")
    return "\n".join([header, f"{sid},{float(p) + 1e-6!r},{label},{true}", *rest]) + "\n"


def _break_symmetry(text: str) -> str:
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) * 0.5)
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


@pytest.mark.parametrize("name, edit, fragment", [
    ("predictions.csv", _nudge_first_p_ad, "dense reference"),
    ("predictions.csv", lambda t: t.replace(",AD,", ",NON_AD,", 1), "disagrees"),
    ("kernel_train.csv", _break_symmetry, "not symmetric"),
    ("loss_history.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "expected 5"),
])
def test_gate_rejects_corrupted_artifacts(exact_run, name, edit, fragment):
    problems = _corrupt(exact_run, name, edit)
    assert any(fragment in p for p in problems), problems


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
