"""The README's code examples run against the package as it stands, the names it and the
package's docstrings cite in the package's modules exist, its quoted benchmark output is
what the committed benchmark run prints, its config table lists ``cli.SCHEMA``'s keys and
defaults and its artifacts table ``cli.ARTIFACTS``' files; every module docstring fits ten
lines."""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

from vqclass.cli import ARTIFACTS, REQUIRED, SCHEMA

ROOT = Path(__file__).resolve().parents[1]


def readme_section(title):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"### {title}\n", 1)[1].split("\n#", 1)[0]


def test_module_docstrings_fit_ten_lines():
    # a module docstring states what the module is for and what it promises; the design
    # story is told once, in README
    for path in sorted((ROOT / "src" / "vqclass").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        doc = tree.body[0] if tree.body else None
        if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
            assert doc.end_lineno - doc.lineno + 1 <= 10, path.name


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library example)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "(30, 30)"


def test_readme_code_names_resolve():
    # each `module.name` README cites for a vqclass module, as `vqclass.cli.SCHEMA` or
    # `ansatz._light_cone`, and each ``module.name`` a docstring in src/ cites, exists;
    # config keys (`ansatz.reps`) and file names are not code
    paths = sorted((ROOT / "src" / "vqclass").glob("*.py"))
    texts = {"README": (ROOT / "README.md").read_text(encoding="utf-8")}
    for path in paths:
        nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        texts[path.name] = "\n".join(filter(None, (
            ast.get_docstring(node) for node in nodes
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))))
    modules = {path.stem for path in paths}
    for where, text in texts.items():
        for name, module in set(re.findall(r"`(?:vqclass\.)?((\w+)\.[\w.]+)`", text)):
            if module not in modules or name in SCHEMA or name.endswith((".json", ".csv")):
                continue
            target = importlib.import_module(f"vqclass.{module}")
            for part in name.split(".")[1:]:
                assert hasattr(target, part), f"{where} cites {name}, which does not exist"
                target = getattr(target, part)


def test_readme_benchmark_block_matches_committed_run():
    # recomputed from runs/benchmark, which test_golden ties to a fresh run
    spec = importlib.util.spec_from_file_location("rerun", ROOT / "scripts" / "rerun.py")
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


def test_readme_config_table_matches_schema():
    # each row names a SCHEMA key, in SCHEMA order, with SCHEMA's default as README spells it
    section = readme_section("Config reference")
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("| `")]
    assert [key.strip(" `") for key, *_ in rows] == list(SCHEMA)
    short = {key: key.rsplit(".", 1)[-1] for key in SCHEMA}
    for (key, cell, *_), (_, default) in zip(rows, SCHEMA.values()):
        if default is REQUIRED:
            assert cell == "required", key
        elif callable(default):  # a fallback to another key's resolved value
            assert cell == f"inherits `{default(short)}`", key
        elif isinstance(default, (int, float)):
            assert json.loads(cell) == default, key
        else:
            assert cell == f"`{default if isinstance(default, str) else json.dumps(default)}`", key


def test_readme_artifacts_table_matches_artifacts():
    first_cells = re.findall(r"^\| ([^|]+) \|", readme_section("Artifacts"), flags=re.M)
    listed = [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]
    assert listed == [name for names in ARTIFACTS.values() for name in names]
