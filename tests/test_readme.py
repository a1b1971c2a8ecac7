"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

from cqforms.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines():
    """Every ``cqforms ...`` line of the first code block under "## Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("cqforms ")]


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    lines = _command_lines()
    assert len(lines) >= 20
    monkeypatch.chdir(tmp_path)  # rep build writes rep32.json for the later lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
