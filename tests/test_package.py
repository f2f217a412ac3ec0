"""Package-level checks: one version number, no unused imports, no unused
re-exports, CSV and JSON written only by annuflow.io, and exit codes
documented as the error classes define them."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import annuflow as af
import annuflow.cli
from annuflow import errors
from annuflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
#: the text files under bench/ that may name an export (not its bytecode)
BENCH_TEXT = {".py", ".json", ".md"}


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


def test_numpy_is_the_only_runtime_dependency():
    # every command runs on numpy alone; scipy serves generalized_eig and
    # the tests' references, so it comes with the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in reqs]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


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


def _module_level_imports(source: str) -> list[str]:
    """Top-level package names that source imports outside any function
    body, i.e. when the module itself is imported."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_module_level_import_detector():
    src = "import os.path\nfrom .m import f\nclass C:\n    from scipy import linalg\n" \
          "def g():\n    import scipy.linalg\nif f:\n    import numpy as np\n"
    assert _module_level_imports(src) == ["numpy", "os", "scipy"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "annuflow").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # scipy.linalg is imported only by generalized_eig, which no command
    # calls, so every command runs on numpy alone
    assert "scipy" not in _module_level_imports(path.read_text())


def _loaded_after(code: str) -> str:
    """The sorted list of scipy modules (scipy itself included) loaded
    after running code in a fresh interpreter on this checkout, as
    printed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_slow_scipy_modules():
    # a bare import of annuflow.cli takes 0.24 s against 0.6 s with
    # scipy.linalg, and scipy.special and scipy.optimize take 40-60 ms and
    # 135-205 ms more (one core, x86_64); every command and benchmark
    # process would pay it
    assert _loaded_after("import annuflow.cli") == "[]"


def test_mu_c_and_grids_run_on_numpy_alone(tmp_path):
    code = ("import annuflow.cli as cli\n"
            "from annuflow.spectral import build_grid\n"
            f"assert cli.main(['mu-c', '1', '3', '5', '--oracle', '-o', {str(tmp_path)!r}]) == 0\n"
            "build_grid(1, 3, 48)")
    assert _loaded_after(code) == "[]"


@pytest.mark.parametrize("argv", [
    ["eigen", "1", "3", "5", "1.2", "-N", "48"],
    ["bifurcate", "1", "3", "5", "--phases", "1", "-N", "40", "--ntheta", "16"],
    ["simulate", "--mu", "1.2", "--steps", "20", "--ntheta", "8", "-N", "24"],
    ["simulate", "--mu", "1.2", "--escape", "1e-3", "--ntheta", "8", "-N", "24",
     "--dt", "0.005"],
    ["sweep", "SPEC"],
], ids=["eigen", "bifurcate", "simulate", "escape", "sweep"])
def test_commands_run_on_numpy_alone(tmp_path, argv):
    # the reduction behind every command but mu-c (eigenpair, G11 solve)
    # runs on numpy's LAPACK: importing scipy.linalg would cost each
    # command process 0.20-0.28 s, about half of the cli benchmark round
    spec = tmp_path / "sweep.cfg"
    spec.write_text("alpha_samples = 2\nb_min = 3\nb_max = 6\nb_samples = 2\nN = 32\n")
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    code = (f"import annuflow.cli as cli\n"
            f"assert cli.main({argv + ['-o', str(tmp_path / 'out')]!r}) == 0\n")
    assert _loaded_after(code) == "[]"


def _read_names(source: str) -> set[str]:
    """Names that source reads or imports: loaded names, attribute names
    and from-import names, so a definition alone does not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def test_read_name_detector():
    src = "from .m import f\nX = 1\ndef g(a):\n    return a.h + Y\n"
    assert _read_names(src) == {"f", "a", "h", "Y"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "annuflow").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_fft(path):
    # every lattice field is a product with domain.synthesis_table; a
    # sys.modules check cannot see an FFT, as scipy.linalg loads numpy.fft
    assert "fft" not in _read_names(path.read_text())


def test_simulator_builds_no_complex_array():
    # the simulator's state, step and diagnostics stay on real planes: it
    # writes no complex literal and reads no real, imag or psi name
    source = (ROOT / "src" / "annuflow" / "simulator.py").read_text()
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant) and isinstance(node.value, complex)]
    assert not {"real", "imag", "psi"} & _read_names(source)


@pytest.mark.parametrize("name", ["bifurcation.py", "spectral.py"])
def test_reduction_builds_no_complex_array(name):
    # Psi_1, g and l are real from the eigenvector to the planes: the
    # reduction writes no complex literal and reads no complex or conj
    # name; the phase s of BifurcationReport.coeffs is complex by
    # definition, so the annotations that say so do not count
    tree = ast.parse((ROOT / "src" / "annuflow" / name).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.FunctionDef):
            node.returns = None
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, complex)]
    assert not {"complex", "conj"} & _read_names(ast.unparse(tree))


def test_every_export_is_used():
    # a re-exported name is read inside the package, shown in the README
    # or used by the benchmark; otherwise it is dead public surface
    init = ROOT / "src" / "annuflow" / "__init__.py"
    exports = _read_names(init.read_text())
    used = set().union(*(_read_names(p.read_text()) for p in MODULES))
    text = (ROOT / "README.md").read_text() + "".join(
        p.read_text() for p in sorted((ROOT / "bench").rglob("*"))
        if p.suffix in BENCH_TEXT)
    unused = sorted(n for n in exports
                    if n not in used and not re.search(rf"\b{n}\b", text))
    assert unused == []


def _output_writes(source: str) -> list[str]:
    """Imports of csv and calls of json.dump or json.dumps in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append("csv")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "json"
              and node.func.attr in ("dump", "dumps")):
            found.append(f"json.{node.func.attr}")
    return found


def test_output_write_detector():
    src = "import csv, json\nfrom csv import writer\njson.dump({}, fh)\n" \
          "json.load(fh)\ntext = json.dumps({})\n"
    assert _output_writes(src) == ["csv", "csv", "json.dump", "json.dumps"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "io.py"],
                         ids=lambda p: p.name)
def test_only_io_writes_csv_and_json(path):
    assert _output_writes(path.read_text()) == []


def _package_imports(source: str) -> set[str]:
    """The annuflow modules, or for ``from . import x`` the names x, that
    source imports; ``annuflow.x`` and ``.x`` alike read x."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["annuflow" if node.level else None, node.module]))
            names += [f"{module}.{a.name}" for a in node.names]
    return {n.split(".")[1] for n in names if n.startswith("annuflow.")}


def test_package_import_detector():
    src = "from . import __version__\nfrom .domain import f\nimport annuflow.simulator\n" \
          "from annuflow.spectral import g\nfrom numpy import array\n"
    assert _package_imports(src) == {"__version__", "domain", "simulator", "spectral"}


def test_io_imports_no_physics():
    # io formats what the commands computed and parses config files: from
    # the package it reads the version, the theta lattice and the errors
    source = (ROOT / "src" / "annuflow" / "io.py").read_text()
    assert _package_imports(source) <= {"errors", "domain", "__version__"}


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
