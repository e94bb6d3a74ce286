"""The README's code examples run against the package as it stands, and
its quoted benchmark output is what the committed benchmark run prints."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library example)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "(30, 30)"


def test_readme_benchmark_block_matches_committed_run():
    # recomputed from runs/benchmark, which test_golden ties to a fresh run
    spec = importlib.util.spec_from_file_location("run_benchmark",
                                                  ROOT / "scripts" / "run_benchmark.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = script.summary(ROOT / "runs" / "benchmark" / "artifacts")
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Benchmark\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == lines


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
    modules = {path.name for path in (ROOT / "src" / "vqclass").glob("*.py")}
    assert modules - {"__init__.py", "__main__.py"} - listed == set()
