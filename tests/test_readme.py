"""The README's examples run as written: its Python block and every CLI line."""

import re
import shlex
from pathlib import Path

import pytest

from heleshaw.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)


def _block(pred):
    found = [body for lang, body in BLOCKS if pred(lang, body)]
    assert len(found) == 1
    return found[0]


PYTHON = _block(lambda lang, body: lang == "python")
CLI_LINES = [
    line.split("#", 1)[0].strip()
    for line in _block(lambda lang, body: body.startswith("heleshaw ")).splitlines()
]
CONFIG = _block(lambda lang, body: body.startswith("family ="))


def test_readme_python_block():
    exec(compile(PYTHON, "README.md", "exec"), {})


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(CONFIG)
    prog, *argv = shlex.split(line)
    assert prog == "heleshaw"
    assert main(argv) == 0
