"""The README's code examples run against the package as it stands."""

from pathlib import Path


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library example)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "(30, 30)"
