#!/usr/bin/env python3
"""Rerun committed runs from their own configs and print what they scored.

    python scripts/rerun.py demo benchmark

For each run named, ``vqclass report --config runs/<run>/config.json --force``
remakes its artifacts; then the loss trend and the two cohort lines of those
artifacts are printed (README's Benchmark section quotes the benchmark's).
Run it from the repository root, which the configs' paths are relative to.
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

from vqclass.cli import load_config, main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="+", metavar="run", help="a directory under runs/")
    for run in parser.parse_args().runs:
        config = str(Path("runs", run, "config.json"))
        rc = cli_main(["report", "--config", config, "--force"])
        if rc != 0:
            return rc
        artifacts = load_config(config).out
        print(f"artifacts in {artifacts}", file=sys.stderr)
        print("\n".join(summary(artifacts)))
    return 0


def summary(artifacts: Path) -> list[str]:
    """The loss trend and the two cohort lines of a run's artifacts."""
    rows = (artifacts / "loss_history.csv").read_text().splitlines()[1:]
    history = np.array([float(row.split(",")[1]) for row in rows])
    first, last = history[:50].mean(), history[-50:].mean()
    lines = [f"loss: first-50 mean {first:.4f} -> last-50 mean {last:.4f} "
             f"({'downward' if last < first else 'NOT downward'})"]
    metrics = json.loads((artifacts / "metrics.json").read_text())
    for cohort in ("ad_cohort", "non_ad_cohort"):
        row = metrics[cohort]
        auroc = "null" if row["auroc"] is None else f"{row['auroc']:.3f}"
        lines.append(f"{cohort:>14}: accuracy={row['accuracy']:.3f} "
                     f"sensitivity={row['sensitivity']:.3f} specificity={row['specificity']:.3f} "
                     f"f1={row['f1']:.3f} auroc={auroc}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
