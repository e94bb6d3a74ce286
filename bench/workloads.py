"""Benchmark workloads and the inputs each one hands to the program.

Every workload runs on a synthetic handwriting-features table from
``vqclass.synth.make_handwriting_table(rows, seed)``; the program only
ever sees the CSV and a JSON run config. Seed 1 with 174 rows gives the
table of the paper-scale reference run (accuracy 0.75, AUROC 0.822).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    pca_k: int
    maxiter: int
    shots: int | None
    verbs: tuple[str, ...]  # the user-facing command sequence timed as pipeline_s
    why: str
    reference: dict | None = None  # held-out metrics expected at the default seed

    @property
    def label(self) -> str:
        readout = "exact" if self.shots is None else f"{self.shots} shots"
        return (f"{self.rows} rows, {self.pca_k} qubits, {self.maxiter} SPSA iterations, "
                f"{readout}, verbs {' + '.join(self.verbs)}")


WORKLOADS = {w.name: w for w in (
    Workload(
        "hw174_n5_exact", 174, 5, 500, None, ("report",),
        "paper reference run; 32-amplitude states make per-gate dispatch in the batched "
        "ansatz (statevec.apply_ops) most of the time; shot readout idle",
        reference={"accuracy": 0.75, "auroc": 0.822},
    ),
    Workload(
        "hw174_n5_shots", 174, 5, 100, 1024, ("report",),
        "same circuit with 1024-shot training and eval readout; sample_counts, seeding "
        "and bit-string decoding dominate, the only workload where readout shows",
    ),
    Workload(
        "hw174_n12_exact", 174, 12, 8, None, ("report",),
        "4096-amplitude states: the training batch (8.5 MB) overflows L2, apply_ops is "
        "about 78% of the time and Python overhead is negligible",
    ),
    Workload(
        "kernel_n8_1200", 1200, 8, 500, None, ("prep", "kernel"),
        "prep then kernel on 1200 rows: per-sample encoding and kernel CSV formatting "
        "dominate; SPSA, ansatz and readout are idle",
    ),
)}


def quick(w: Workload) -> Workload:
    """Tiny variant for the smoke test; timings from it mean nothing."""
    return dataclasses.replace(w, rows=40, pca_k=3, maxiter=5, reference=None)


def make_inputs(w: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's CSV and run config into ``workdir``; return the config."""
    from vqclass.synth import make_handwriting_table, write_table_csv

    columns, rows = make_handwriting_table(w.rows, seed=seed)
    write_table_csv(str(workdir / "data.csv"), columns, rows)
    cfg = {
        "data": {"path": "data.csv", "label_column": "class", "positive_label": "P"},
        "prep": {"pca_k": w.pca_k, "test_fraction": 0.25, "seed": 0},
        "feature_map": {"reps": 1, "entanglement": "full"},
        "ansatz": {"reps": 2, "entanglement": "full"},
        "vqc": {"measured_qubits": [0, 1], "shots": w.shots, "eval_shots": w.shots,
                "seed": 0},
        "spsa": {"maxiter": w.maxiter, "a": 1.0, "c": 0.2, "seed": 0},
        "output_dir": "out",
    }
    (workdir / "config.json").write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return cfg
