"""Help and usage text pinned byte for byte.

``data/golden_usage.json`` stores the exit status, stdout and stderr of
``--help`` for every command path and of the errors that argparse
reports: an unknown verb or target, a missing target or required flag, a
flag that the command does not take, an ambiguous or invalid flag value,
and two runs that only parse when a flag prefix and a value that starts
with "-" are read as the command's own flags. Help is wrapped at 80
columns. The parser builds each command's flags only when that command
runs, so any change to what a command offers fails here. argparse's
list of valid choices is compared without its quotes, which Python 3.13
dropped in a patch release; the rest is argparse's text as Python 3.10
to 3.12 print it.

The data was written by running this file as a script
(``PYTHONPATH=src python tests/test_golden_usage.py``) before the parser
was last restructured; regenerate it only for a deliberate change of
usage text.
"""

import json
import os
import re
import tempfile
from pathlib import Path

from test_golden_cli import _fixture, run_one

GOLDEN = Path(__file__).parent / "data" / "golden_usage.json"

COMMANDS = ((), ("check",), ("check", "constant"), ("check", "colored"),
            ("check", "wxz"), ("check", "super"), ("check", "split-center"),
            ("export",), ("export", "matrix"), ("validate",),
            ("validate", "algebra"), ("validate", "superalgebra"),
            ("invert",))


def invocations():
    """(name, argv) for every pinned run."""
    quadratic = ("--algebra", _fixture("quadratic"))
    runs = [(f"help {' '.join(('ybx',) + path)}", [*path, "--help"])
            for path in COMMANDS]
    runs += [
        ("unknown verb", ["frobnicate"]),
        ("unknown target", ["check", "frobnicate"]),
        ("missing target", ["check"]),
        ("missing required flag", ["check", "constant"]),
        ("foreign flag", ["check", "constant", *quadratic, "--p", "2"]),
        ("foreign flag on validate", ["validate", "algebra", *quadratic,
                                      "--alpha", "1"]),
        ("bad format", ["validate", "algebra", *quadratic,
                        "--format", "xml"]),
        ("zero samples", ["check", "colored", *quadratic, "--samples", "0"]),
        ("dim 1", ["check", "split-center", "--dim", "1"]),
        ("ambiguous prefix", ["check", "colored", *quadratic, "--s", "1"]),
        ("bad z-index", ["check", "super", "--superalgebra",
                         _fixture("gl11"), "--z-index", "x"]),
        ("unknown family", ["invert", "--family", "frobnicate"]),
        ("prefix flag", ["check", "constant", *quadratic, "--alph", "2",
                         "--format", "json"]),
        ("joined negative value", ["check", "constant", *quadratic,
                                   "--alpha", "-3/2", "--format", "json"]),
    ]
    return runs


def golden_runs(workdir):
    return {name: run_one(argv, workdir) for name, argv in invocations()}


def unquoted_choices(run):
    """run with the quotes of each "(choose from ...)" list removed."""
    return {key: re.sub(r"\(choose from [^)]*\)",
                        lambda m: m.group(0).replace("'", ""), value)
            if isinstance(value, str) else value
            for key, value in run.items()}


def test_usage_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_runs(tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert unquoted_choices(got[name]) == unquoted_choices(want[name]), \
            name


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as workdir:
        runs = golden_runs(workdir)
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
