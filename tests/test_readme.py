"""The README's library example runs as written, and its command lines
parse."""

import re
import shlex
from pathlib import Path

from annuflow.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("annuflow ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # exits 2 on a bad line
