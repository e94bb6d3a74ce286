"""Golden runs: the committed demo and benchmark artifacts are what the
pipeline makes today.

``runs/demo`` and ``runs/benchmark`` hold the config, input and artifacts of
``scripts/run_demo.py`` and ``scripts/run_benchmark.py`` (tracked in git
although ``/runs/`` is ignored). This test reruns ``report`` from each config
into a temporary directory and compares byte for byte, so a refactor that
changes any number fails here. A deliberate numeric change regenerates
``runs/`` with both scripts in the same change.
"""

import json
from pathlib import Path

import pytest

from vqclass.cli import main

RUNS = Path(__file__).resolve().parents[1] / "runs"


def _without_paths(echo: bytes) -> dict:
    """A config echo less the two keys that say where the run read and wrote."""
    config = json.loads(echo)
    del config["data"]["path"], config["output_dir"]
    return config


@pytest.mark.parametrize("run, data", [("demo", "blobs.csv"), ("benchmark", "handwriting.csv")])
def test_report_matches_committed_artifacts(tmp_path, run, data):
    committed = RUNS / run
    config = json.loads((committed / "config.json").read_text(encoding="utf-8"))
    config["data"]["path"] = str(committed / data)
    config["output_dir"] = str(tmp_path / "artifacts")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["report", "--config", str(config_path)]) == 0

    expected = sorted(p.name for p in (committed / "artifacts").iterdir())
    assert sorted(p.name for p in (tmp_path / "artifacts").iterdir()) == expected
    for name in expected:
        got = (tmp_path / "artifacts" / name).read_bytes()
        want = (committed / "artifacts" / name).read_bytes()
        if name == "config_echo.json":
            assert _without_paths(got) == _without_paths(want)
        else:
            assert got == want, name
