"""README.md's examples run as they are written, so neither the library
section nor the command-line section can drift away from the code: every
```python block runs, and every `$ ybx ...` line of the ```text block exits
0 and prints the lines shown under it."""

import re
from pathlib import Path

import pytest

from ybx.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def _commands():
    """(argv, shown output lines) of each `$ ybx` line of the text blocks,
    with its backslash continuations joined."""
    out = []
    for block in re.findall(r"^```text\n(.*?)^```$", README.read_text(),
                            re.MULTILINE | re.DOTALL):
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "),
                              flags=re.MULTILINE)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            words = command.split()
            assert words[0] == "ybx", command
            out.append((words[1:], shown))
    return out


COMMANDS = _commands()


def test_readme_has_an_example():
    assert BLOCKS
    assert COMMANDS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("argv, shown", COMMANDS,
                         ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
def test_command_line_example(argv, shown, capsys, monkeypatch):
    # the paths in README are relative to the repository root; a shown
    # line stands for the printed line at its place, whitespace aside,
    # except elapsed times and lines cut short with "..."
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) >= len(shown)
    for want, got in zip(shown, printed):
        if want.strip().startswith("elapsed:") or "..." in want:
            continue
        assert want.split() == got.split()
