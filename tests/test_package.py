"""Package-level checks: one version number and no unused imports."""

import ast
from pathlib import Path

import pytest

import annuflow as af
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
