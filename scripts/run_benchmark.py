#!/usr/bin/env python3
"""Desk-scale benchmark on a 174-row handwriting-features-style table.

Runs the full pipeline with 500 optimizer iterations and prints the
held-out metrics plus the loss trend. The real clinical dataset is not
bundled, so a synthetic table with the same shape and class balance
stands in; point --data at a real CSV to benchmark on it instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from vqclass.cli import main as cli_main  # noqa: E402
from vqclass.synth import make_handwriting_table, write_table_csv  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", help="existing CSV to benchmark on (default: generate one)")
    parser.add_argument("--label-column", default="class")
    parser.add_argument("--positive-label", default="P")
    parser.add_argument("--maxiter", type=int, default=500)
    parser.add_argument("--outdir", default="runs/benchmark")
    args = parser.parse_args()

    workdir = Path(args.outdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.data:
        data_path = args.data
    else:
        data_path = str(workdir / "handwriting.csv")
        columns, rows = make_handwriting_table(174)
        write_table_csv(data_path, columns, rows)

    config = {
        "data": {
            "path": data_path,
            "label_column": args.label_column,
            "positive_label": args.positive_label,
        },
        "prep": {"pca_k": 5, "test_fraction": 0.25, "seed": 0},
        "feature_map": {"reps": 1, "entanglement": "full"},
        "ansatz": {"reps": 2, "entanglement": "full"},
        "vqc": {"measured_qubits": [0, 1], "shots": None, "eval_shots": None, "seed": 0},
        "spsa": {"maxiter": args.maxiter, "a": 1.0, "c": 0.2, "seed": 0},
        "output_dir": str(workdir / "artifacts"),
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    rc = cli_main(["report", "--config", str(config_path), "--force"])
    if rc != 0:
        return rc

    artifacts = workdir / "artifacts"
    print(f"\nartifacts in {artifacts}")
    print("\n".join(summary(artifacts)))
    return 0


def summary(artifacts: Path) -> list[str]:
    """The loss trend and the two cohort lines of a run's artifacts, as
    printed above and quoted in README's Benchmark section."""
    history = np.array(
        [
            float(line.split(",")[1])
            for line in (artifacts / "loss_history.csv").read_text().splitlines()[1:]
        ]
    )
    metrics = json.loads((artifacts / "metrics.json").read_text())
    lines = [
        f"loss: first-50 mean {history[:50].mean():.4f} -> "
        f"last-50 mean {history[-50:].mean():.4f} "
        f"({'downward' if history[-50:].mean() < history[:50].mean() else 'NOT downward'})"
    ]
    for cohort in ("ad_cohort", "non_ad_cohort"):
        row = metrics[cohort]
        auroc = "null" if row["auroc"] is None else f"{row['auroc']:.3f}"
        lines.append(
            f"{cohort:>14}: accuracy={row['accuracy']:.3f} "
            f"sensitivity={row['sensitivity']:.3f} specificity={row['specificity']:.3f} "
            f"f1={row['f1']:.3f} auroc={auroc}"
        )
    return lines


if __name__ == "__main__":
    sys.exit(main())
