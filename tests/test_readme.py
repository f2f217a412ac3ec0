"""The README's library example and every one of its command lines run as
written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from annuflow.cli import build_parser, main
from annuflow.io import validate_against_schema

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = README.read_text().split("## Command line", 1)[1]
LINES = [line for line in re.search(r"```sh\n(.*?)```", COMMANDS, re.S).group(1)
         .splitlines() if line.startswith("annuflow ")]
#: the report schema of each command and of the escape run; sweep ships
#: none, so its report is checked by its keys
SCHEMAS = {"mu-c": "mu_c", "eigen": "eigen", "bifurcate": "bifurcate",
           "simulate": "simulate", "escape": "escape"}
KEYS = {"sweep": {"rows", "classes_present", "csv"}}


def test_library_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_command_lines_parse():
    assert LINES
    parser = build_parser()
    for line in LINES:
        parser.parse_args(shlex.split(line)[1:])  # exits 2 on a bad line


@pytest.mark.parametrize("line", LINES)
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # the sweep spec is the README's ini block, saved as the sweep.cfg it names
    spec = re.search(r"```ini\n(.*?)```", COMMANDS, re.S).group(1)
    (tmp_path / "sweep.cfg").write_text(spec)
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    assert main(argv) == 0, capsys.readouterr().out
    doc = json.loads(capsys.readouterr().out)
    kind = "escape" if "--escape" in argv else argv[0]
    if kind in SCHEMAS:
        validate_against_schema(doc, SCHEMAS[kind])
    else:
        assert set(doc) == KEYS[kind]
    manifest = "out/sweep_manifest.json" if kind == "sweep" else "manifest.json"
    validate_against_schema(json.loads((tmp_path / manifest).read_text()), "manifest")
