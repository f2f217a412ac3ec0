"""Package-level checks: one version number, no unused imports, and exit
codes documented as the error classes define them."""

import ast
import re
from pathlib import Path

import pytest

import annuflow as af
import annuflow.cli
from annuflow import errors
from annuflow.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_reads_the_package_version(capsys):
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = doc["project"]
    assert project.get("version", af.__version__) == af.__version__
    if "version" not in project:
        assert "version" in project["dynamic"]
        assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "annuflow.__version__"}
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == af.__version__


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_detector():
    src = "from __future__ import annotations\nimport os, numpy as np\n" \
          "from typing import Callable\nx: np.ndarray = os.sep\n"
    assert _unused_imports(src) == ["Callable"]


# __init__.py imports in order to re-export
MODULES = sorted(p for p in (ROOT / "src" / "annuflow").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def _documented_codes(text: str) -> set[int]:
    """The numbers in the sentence of text that starts 'Exit codes:'."""
    sentence = re.search(r"Exit codes:(.*?)\.(\s|$)", text, re.S).group(1)
    return {int(c) for c in re.findall(r"\b\d+\b", sentence)}


@pytest.mark.parametrize("doc", ["cli docstring", "README"])
def test_exit_codes_documented(doc):
    text = (annuflow.cli.__doc__ if doc == "cli docstring"
            else (ROOT / "README.md").read_text())
    codes = {cls.exit_code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.AnnuflowError)}
    assert _documented_codes(text) == {0} | codes
