"""The README's command-line examples are true of the real program.

Every command in the command block exits 0, and each `$ erjw ...`
example prints its shown lines, in order, among its real output lines;
a `...` line stands for lines left out.
"""

import re
import shlex
from pathlib import Path

import pytest

from erjw import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
_BLOCKS = re.findall(r"^```\n(.*?)^```", README, re.M | re.S)


def _commands() -> list:
    block = next(b for b in _BLOCKS if b.startswith("erjw "))
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines()]


def _examples() -> list:
    block = next(b for b in _BLOCKS if b.startswith("$ erjw "))
    out = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        argv = shlex.split(command)[2:]
        out.append(pytest.param(
            argv, [line for line in shown if line.strip() != "..."],
            id=" ".join(argv)))
    return out


def test_the_readme_blocks_are_found():
    assert len(_commands()) == 6
    assert [ex.values[0][0] for ex in _examples()] == ["page", "orient"]


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), argv
    assert captured.out


@pytest.mark.parametrize("argv, shown", _examples())
def test_readme_example_lines_appear_in_order(argv, shown, capsys):
    assert cli.main(argv) == 0
    lines = iter(capsys.readouterr().out.splitlines())
    for want in shown:
        assert any(line == want for line in lines), (argv, want)
