"""The reference implementations stay independent of the package."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_vqclass():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "vqclass"] == []
