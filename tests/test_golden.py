"""Golden run: the committed demo artifacts are what the pipeline makes today.

``runs/demo`` holds the config, input and artifacts of ``scripts/run_demo.py``
(tracked in git although ``/runs/`` is ignored). This test reruns ``report``
from that config into a temporary directory and compares byte for byte, so a
refactor that changes any number fails here. A deliberate numeric change
regenerates ``runs/`` (``scripts/run_demo.py`` and ``scripts/run_benchmark.py``)
in the same change.
"""

import json
from pathlib import Path

from vqclass.cli import main

DEMO = Path(__file__).resolve().parents[1] / "runs" / "demo"


def _without_paths(echo: bytes) -> dict:
    """A config echo less the two keys that say where the run read and wrote."""
    config = json.loads(echo)
    del config["data"]["path"], config["output_dir"]
    return config


def test_demo_report_matches_committed_artifacts(tmp_path):
    config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))
    config["data"]["path"] = str(DEMO / "blobs.csv")
    config["output_dir"] = str(tmp_path / "artifacts")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["report", "--config", str(config_path)]) == 0

    expected = sorted(p.name for p in (DEMO / "artifacts").iterdir())
    assert sorted(p.name for p in (tmp_path / "artifacts").iterdir()) == expected
    for name in expected:
        got = (tmp_path / "artifacts" / name).read_bytes()
        want = (DEMO / "artifacts" / name).read_bytes()
        if name == "config_echo.json":
            assert _without_paths(got) == _without_paths(want)
        else:
            assert got == want, name
